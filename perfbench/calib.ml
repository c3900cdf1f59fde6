(* The host's current speed, read from fixed work that belongs to the
   benchmark and to no layer of the program.

   On a shared VM the host runs the same code 20-30 % faster or slower
   for seconds to minutes at a time, which no amount of averaging
   inside one run removes.  The timed loops therefore pause every
   {!period} seconds for one reading, and scale the time measured
   around each stretch by [reference time / reading]: the figures read
   as taken on a host that does the calibration work in the reference
   time.  A change to the program moves them; the host's regime mostly
   does not.  The raw figures are printed in the run stamp. *)

let table = Array.init 65536 (fun i -> (i * 7919) land 65535)

(* Array walks, small allocations, hashing and float arithmetic. *)
let kernel () =
  let h = Hashtbl.create 256 in
  let acc = ref 0 and f = ref 1.0 in
  for i = 0 to 599_999 do
    let j = table.((!acc + (i * 31)) land 65535) in
    acc := !acc + j;
    if i land 31 = 0 then Hashtbl.replace h (i land 2047) (i, j);
    f := (!f *. 1.0000001) +. float_of_int (j land 7)
  done;
  Sys.opaque_identity (!acc, !f, Hashtbl.length h)

(* Round trips of one byte with an echo process on the same CPU: the
   wake-ups and context switches a pinned closed loop is made of, which
   the host's regimes slow down more than plain computation. *)
type echo = { pid : int; fd : Unix.file_descr; byte : Bytes.t }

let echo_rounds = 300

let start_echo () =
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec mine;
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close theirs)
      (fun () -> Proc.spawn ~stdin:theirs ~stdout:theirs Sys.executable_name [ "--echo" ])
  in
  { pid; fd = mine; byte = Bytes.make 1 'x' }

let stop_echo e =
  Unix.close e.fd;
  ignore (Proc.reap e.pid)

(* The echo process's side: echo bytes until EOF. *)
let echo_loop () =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read Unix.stdin b 0 64 with
    | 0 -> ()
    | n ->
        ignore (Unix.write Unix.stdout b 0 n);
        go ()
  in
  go ()

let ping_pong e =
  for _ = 1 to echo_rounds do
    ignore (Unix.write e.fd e.byte 0 1);
    ignore (Unix.read e.fd e.byte 0 1)
  done

(* A reading's parts on a quiet host of the reference machine (a
   2-vCPU VM, OCaml 5.1.1); re-derive with [main.exe --calibrate]. *)
let reference_kernel_s = 0.0035
let reference_echo_s = 0.0022

let period = 0.05

(* One speed factor: reference time over measured time. *)
let read ?echo () =
  let (_ : int * float * int), d = Exact.timed kernel in
  match echo with
  | None -> reference_kernel_s /. d
  | Some e ->
      let (), p = Exact.timed (fun () -> ping_pong e) in
      (reference_kernel_s +. reference_echo_s) /. (d +. p)
