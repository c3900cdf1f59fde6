(* Exact order statistics over recorded samples, growable sample
   vectors, and the monotonic clock the benchmark times with. *)

let now () = Int64.to_float (Obs.Clock.monotonic_ns ()) *. 1e-9
let started = now ()

(* Progress on standard error, stamped with seconds since start. *)
let phase fmt =
  Printf.ksprintf
    (fun s -> Printf.eprintf "perfbench: %7.2fs %s\n%!" (now () -. started) s)
    fmt

(* Nearest rank: the smallest sample with at least a share [p] of the
   samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Exact.percentile: empty sample";
  let s = Array.copy a in
  Array.sort Float.compare s;
  let k = int_of_float (Float.ceil (p *. float_of_int n)) in
  s.(max 0 (min (n - 1) (k - 1)))

let median a = percentile a 0.5

let sum a = Array.fold_left ( +. ) 0.0 a

module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let clear v = v.n <- 0
  let to_array v = Array.sub v.a 0 v.n
end

(* [f ()] and the seconds it took. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [f ()], the seconds it took and the minor-heap words it allocated. *)
let metered f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t = now () -. t0 in
  (r, t, Gc.minor_words () -. w0)
