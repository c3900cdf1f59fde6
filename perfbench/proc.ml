(* Child processes and /proc readings. *)

(* Every child this process started and has not reaped, so that an
   aborted run still stops them. *)
let children : int list ref = ref []

let on_path prog =
  List.exists
    (fun dir -> dir <> "" && Sys.file_exists (Filename.concat dir prog))
    (String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:""))

(* Start [prog args].  Where setpriv is installed the child also gets
   SIGKILL should this process die first. *)
let spawn ?stdin ?(stdout = Unix.stdout) ?(stderr = Unix.stderr) prog args =
  let argv =
    if on_path "setpriv" then
      "setpriv" :: "--pdeathsig" :: "KILL" :: "--" :: prog :: args
    else prog :: args
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process (List.hd argv) (Array.of_list argv)
          (Option.value stdin ~default:devnull)
          stdout stderr)
  in
  children := pid :: !children;
  pid

let rec waitpid flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid flags pid

let forget pid = children := List.filter (fun p -> p <> pid) !children

(* Wait for [pid] at most [grace_s] seconds, then kill it. *)
let reap ?(grace_s = 30.0) pid =
  let deadline = Exact.now () +. grace_s in
  let rec go () =
    match waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Exact.now () < deadline ->
        Unix.sleepf 0.002;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid [] pid);
        Error "did not exit in time (killed)"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "exited with %d" n)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Error (Printf.sprintf "stopped by signal %d" s)
  in
  let r = go () in
  forget pid;
  r

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* Run [prog args] to completion; its exit status and standard output. *)
let run prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close wr) (fun () -> spawn ~stdout:wr prog args)
  in
  let ic = Unix.in_channel_of_descr rd in
  let out = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic) in
  (reap pid, out)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> invalid_arg "free_port")

let read_file path = In_channel.with_open_bin path In_channel.input_all

let lines path = String.split_on_char '\n' (read_file path)

let ticks_per_s = 100.0

(* user + system CPU seconds of a process, all its threads. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%s/stat" pid) in
  let i = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s i (String.length s - i))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. ticks_per_s

(* This process's user + system CPU seconds, at getrusage resolution. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A "Key:   value ..." line of /proc/PID/status. *)
let status_field pid key =
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:(key ^ ":") l then
        Some (String.trim (String.sub l (String.length key + 1) (String.length l - String.length key - 1)))
      else None)
    (lines (Printf.sprintf "/proc/%s/status" pid))

(* Peak resident set (VmHWM), MiB. *)
let peak_rss_mb pid =
  match status_field pid "VmHWM" with
  | Some v -> Scanf.sscanf v "%f" (fun kb -> kb /. 1024.0)
  | None -> failwith "no VmHWM"

let cpus_allowed () =
  Option.value (status_field "self" "Cpus_allowed_list") ~default:"unknown"

(* The host's cumulative (steal, total) CPU ticks from /proc/stat.
   Recorded in the run stamp only; never used to select data. *)
let host_ticks () =
  match lines "/proc/stat" with
  | l :: _ when String.starts_with ~prefix:"cpu " l -> (
      match List.filter_map float_of_string_opt (String.split_on_char ' ' l) with
      | user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
          (steal, user +. nice +. system +. idle +. iowait +. irq +. softirq +. steal)
      | _ -> (0.0, 0.0))
  | _ -> (0.0, 0.0)
  | exception Sys_error _ -> (0.0, 0.0)

let steal_share (s0, t0) (s1, t1) = if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.0

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Copy the regular files of directory [src] into a fresh [dst]. *)
let copy_dir src dst =
  rm_rf dst;
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      if (Unix.stat s).Unix.st_kind = Unix.S_REG then
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            Out_channel.output_string oc (read_file s)))
    (Sys.readdir src)
