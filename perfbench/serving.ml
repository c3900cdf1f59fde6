(* The two serving workloads against the real `cts serve` binary.

   Daemon and load generator share one CPU (run.py pins the benchmark
   before it starts, and the daemon inherits the mask), so each
   request's own cost reaches the figures instead of cross-CPU wake-ups
   and hypervisor steal.  The load is a closed loop over one keep-alive
   connection: the next request leaves when the previous answer is in. *)

(* {2 Tally of checked answers} *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < 8 then t.notes <- what :: t.notes
  end

(* {2 The daemon} *)

type daemon = { pid : int; port : int; args : string list }

let serve_args extra = [ "serve"; "--domains"; "1"; "--quiet" ] @ Inputs.link_flags @ extra

let json_get path doc =
  List.fold_left (fun acc k -> Option.bind acc (Obs.Json.member k)) (Some doc) path

let healthz port =
  match Client.one_shot port (Client.get "/healthz") with
  | r when r.Client.status = 200 -> Obs.Json.of_string r.Client.body
  | _ -> None
  | exception (Unix.Unix_error _ | Client.Protocol _) -> None

(* Spawn [cts serve ARGS] and wait until /healthz reports ready. *)
let boot ~cts ~log extra =
  let port = Proc.free_port () in
  let args = serve_args extra @ [ "--port"; string_of_int port ] in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out) (fun () -> Proc.spawn ~stdout:out ~stderr:out cts args)
  in
  let deadline = Exact.now () +. 60.0 in
  let rec poll () =
    match healthz port with
    | Some doc when json_get [ "state" ] doc = Some (Obs.Json.String "ready") -> ()
    | _ ->
        if Exact.now () > deadline then begin
          ignore (Proc.reap ~grace_s:0.0 pid);
          failwith "cts serve did not become ready within 60 s"
        end;
        (match Proc.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            Proc.forget pid;
            failwith (Printf.sprintf "cts serve exited during boot (see %s)" log));
        Unix.sleepf 0.0005;
        poll ()
  in
  poll ();
  { pid; port; args }

let pid_s d = string_of_int d.pid

(* Graceful drain (SIGTERM); [Ok ()] iff the daemon exits 0. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  Proc.reap d.pid

(* A crash: SIGKILL, nothing flushed beyond what the OS holds. *)
let crash d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Proc.reap d.pid)

(* GET /debug/vars on the load connection. *)
let debug_vars c =
  let r = Client.request c (Client.get "/debug/vars") in
  match Obs.Json.of_string r.Client.body with
  | Some doc when r.Client.status = 200 -> doc
  | _ -> failwith "GET /debug/vars failed"

let number = function
  | Some (Obs.Json.Float f) -> f
  | Some (Obs.Json.Int i) -> float_of_int i
  | _ -> failwith "expected a number"

let minor_words doc = number (json_get [ "gc"; "minor_words" ] doc)

(* Completed spans so far, over every [span.*.us] histogram. *)
let span_count doc =
  match Obs.Json.member "spans" doc with
  | Some (Obs.Json.Obj fields) ->
      List.fold_left (fun acc (_, s) -> acc +. number (Obs.Json.member "count" s)) 0.0 fields
  | _ -> 0.0

(* {2 The closed loop} *)

type loop = {
  lat : float array;  (** round trips, seconds, as measured *)
  norm_lat : float array;  (** the same scaled to the reference host ({!Calib}) *)
  daemon_cpu_s : float;  (** the daemon's user+sys CPU over the loop *)
  norm_cpu_s : float;
  ops : int;
  elapsed : float;  (** seconds of load, calibration pauses excluded *)
  norm_elapsed : float;
  speed : float;  (** mean calibration factor over the loop *)
  client_cpu_s : float;  (** this process's CPU over the loop *)
}

(* Ops [first], [first + 1], ... until [stop] says so: [issue i] gives
   op [i]'s request bytes, [expect i] checks its answer.  With [echo],
   the loop pauses every {!Calib.period} seconds to read the host's
   speed, and each stretch between two readings is scaled by their
   mean.  CPU figures leave the pauses out. *)
let drive ?pid ?echo c t ~first ~stop ~issue ~expect =
  let lat = Exact.Vec.create () and norm_lat = Exact.Vec.create () in
  let cpu () = match pid with Some p -> Proc.cpu_s p | None -> 0.0 in
  let self_cpu = ref 0.0 and self_t = ref (Proc.self_cpu_s ()) in
  let calibrate = Option.is_some echo in
  let factor () = if calibrate then Calib.read ?echo () else 1.0 in
  let f0 = ref (factor ()) in
  let t0 = Exact.now () in
  let slice_t = ref t0 and slice_cpu = ref (cpu ()) and slice_lat = Exact.Vec.create () in
  let elapsed = ref 0.0 and norm_elapsed = ref 0.0 in
  let cpu_s = ref 0.0 and norm_cpu = ref 0.0 and factors = ref [] in
  let close_slice () =
    let dt = Exact.now () -. !slice_t and dc = cpu () -. !slice_cpu in
    self_cpu := !self_cpu +. (Proc.self_cpu_s () -. !self_t);
    let f1 = factor () in
    let f = (!f0 +. f1) /. 2.0 in
    factors := f :: !factors;
    elapsed := !elapsed +. dt;
    norm_elapsed := !norm_elapsed +. (dt *. f);
    cpu_s := !cpu_s +. dc;
    norm_cpu := !norm_cpu +. (dc *. f);
    Array.iter (fun l -> Exact.Vec.push norm_lat (l *. f)) (Exact.Vec.to_array slice_lat);
    Exact.Vec.clear slice_lat;
    f0 := f1;
    self_t := Proc.self_cpu_s ();
    slice_t := Exact.now ();
    slice_cpu := cpu ()
  in
  let i = ref first in
  while not (stop (!i - first) (Exact.now () -. t0)) do
    let s = issue !i in
    let a = Exact.now () in
    let r = Client.request c s in
    let b = Exact.now () in
    Exact.Vec.push lat (b -. a);
    Exact.Vec.push slice_lat (b -. a);
    check t (expect !i r) (Printf.sprintf "op %d: HTTP %d %s" !i r.Client.status r.Client.body);
    incr i;
    if calibrate && b -. !slice_t >= Calib.period then close_slice ()
  done;
  close_slice ();
  {
    lat = Exact.Vec.to_array lat;
    norm_lat = Exact.Vec.to_array norm_lat;
    daemon_cpu_s = !cpu_s;
    norm_cpu_s = !norm_cpu;
    ops = !i - first;
    elapsed = !elapsed;
    norm_elapsed = !norm_elapsed;
    speed = Exact.sum (Array.of_list !factors) /. float_of_int (List.length !factors);
    client_cpu_s = !self_cpu;
  }

let for_ops n k _ = k >= n
let for_seconds s _ elapsed = elapsed >= s

(* {2 Results} *)

type fixed = {
  alloc_words_per_op : float;
  spans_per_op : float;
  rss_mb : float;
  fixed_ops : int;
}

type result = {
  setup_s : float array;  (** scaled to the reference host *)
  raw_setup_s : float array;
  loop : loop;
  fixed : fixed;
  tally : tally;
  flags : string list;
}

(* The eight end-to-end metrics, as (name, value, unit, samples).  The
   timed loop's figures are pooled over the whole loop: on a shared
   host the loop's speed switches between regimes for seconds at a
   time, and a pooled figure moves smoothly with the share of each
   where a median of per-second figures jumps between them. *)
let metrics r =
  let l = r.loop in
  let n = l.ops in
  let t = r.tally in
  [
    ("setup_s", Exact.median r.setup_s, "s", Array.length r.setup_s);
    ("throughput_ops", float_of_int n /. l.norm_elapsed, "1/s", n);
    ("p50_us", Exact.percentile l.norm_lat 0.5 *. 1e6, "us", n);
    ("p99_us", Exact.percentile l.norm_lat 0.99 *. 1e6, "us", n);
    ("cpu_us_per_op", l.norm_cpu_s *. 1e6 /. float_of_int n, "us", n);
    ("alloc_words_per_op", r.fixed.alloc_words_per_op, "words", r.fixed.fixed_ops);
    ("rss_mb", r.fixed.rss_mb, "MiB", 1);
    ( "ok_ratio",
      float_of_int (t.attempted - t.failed) /. float_of_int (max 1 t.attempted),
      "1",
      t.attempted );
  ]

(* The same figures as measured, before scaling, for the run stamp. *)
let raw r =
  let l = r.loop in
  let n = float_of_int l.ops in
  Obs.Json.Obj
    [
      ("setup_s", Obs.Json.Float (Exact.median r.raw_setup_s));
      ("throughput_ops", Obs.Json.Float (n /. l.elapsed));
      ("p50_us", Obs.Json.Float (Exact.percentile l.lat 0.5 *. 1e6));
      ("p99_us", Obs.Json.Float (Exact.percentile l.lat 0.99 *. 1e6));
      ("cpu_us_per_op", Obs.Json.Float (l.daemon_cpu_s *. 1e6 /. n));
      ("speed", Obs.Json.Float l.speed);
    ]

(* The fixed-work phase: [ops] requests on a fresh connection, with the
   daemon's allocation, span count and peak RSS read after exactly that
   much work — never at the end of a clock-bounded loop, where a faster
   daemon would have done more. *)
let fixed_phase d t ~first ~ops ~issue ~expect =
  let c = Client.create d.port in
  let before = debug_vars c in
  ignore (drive c t ~first ~stop:(for_ops ops) ~issue ~expect);
  let after = debug_vars c in
  Client.close c;
  let per x = x /. float_of_int ops in
  {
    alloc_words_per_op = per (minor_words after -. minor_words before);
    spans_per_op = per (span_count after -. span_count before);
    rss_mb = Proc.peak_rss_mb (pid_s d);
    fixed_ops = ops;
  }

(* The clock-bounded phase the rates and latencies come from; [limit]
   bounds it to the ops the stream holds. *)
let timed_phase ?(limit = max_int) ~echo d t ~seconds ~first ~issue ~expect =
  let c = Client.create d.port in
  let loop =
    drive ~pid:(pid_s d) ~echo c t ~first
      ~stop:(fun k e -> k >= limit || for_seconds seconds k e)
      ~issue ~expect
  in
  Client.close c;
  loop

(* Set-up runs [boots] times, each on a fresh daemon; the last one
   stays up for the measured phases. *)
let boots = 5

let boot_repeatedly ~echo boot_once =
  let rec go k acc =
    let f0 = Calib.read ~echo () in
    let d, s = boot_once () in
    let f = (f0 +. Calib.read ~echo ()) /. 2.0 in
    if k = boots then (d, List.rev ((s, f) :: acc))
    else begin
      crash d;
      go (k + 1) ((s, f) :: acc)
    end
  in
  let d, l = go 1 [] in
  (d, Array.of_list (List.map (fun (s, f) -> s *. f) l), Array.of_list (List.map fst l))

(* {2 decide_hot} *)

let fixed_ops = 20_000

let with_echo f =
  let echo = Calib.start_echo () in
  Fun.protect ~finally:(fun () -> Calib.stop_echo echo) (fun () -> f echo)

let decide_hot ~cts ~dir ~seed ~seconds =
  with_echo @@ fun echo ->
  let t = tally () in
  let reference, preload_expect = Inputs.decide_reference seed in
  let expect_decide = Inputs.decide_checker reference in
  let preload = Inputs.preload seed in
  let stream = Inputs.decide_stream seed 4096 in
  let requests = Array.map Inputs.key_request Inputs.decide_keys in
  let issue i = requests.(stream.(i mod Array.length stream)) in
  let expect i r = expect_decide stream.(i mod Array.length stream) r in
  let log = Filename.concat dir "decide_hot.log" in
  let boot_once () =
    let t0 = Exact.now () in
    let d = boot ~cts ~log [] in
    let c = Client.create d.port in
    ignore
      (drive c t ~first:0 ~stop:(for_ops (Array.length preload))
         ~issue:(fun i -> Inputs.preload_request preload.(i))
         ~expect:(fun i r -> Inputs.outcome_ok preload_expect.(i) r));
    ignore
      (drive c t ~first:0 ~stop:(for_ops (Array.length Inputs.decide_keys))
         ~issue:(fun i -> requests.(i))
         ~expect:expect_decide);
    Client.close c;
    (d, Exact.now () -. t0)
  in
  let d, setup_s, raw_setup_s = boot_repeatedly ~echo boot_once in
  Exact.phase "decide_hot: set-up %s s" (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_s)));
  let fixed = fixed_phase d t ~first:0 ~ops:fixed_ops ~issue ~expect in
  let loop = timed_phase ~echo d t ~seconds ~first:fixed_ops ~issue ~expect in
  check t (stop d = Ok ()) "daemon did not drain cleanly on SIGTERM";
  { setup_s; raw_setup_s; loop; fixed; tally = t; flags = d.args }

(* {2 admit_churn} *)

(* Ops of the earlier daemon life that leaves the state dir behind; all
   of them are replayed from the journal at every boot. *)
let prep_ops = 60_000
let warm_ops = 2_000

(* The churn's allocation per op depends on the stream's mix of admits,
   rejections and releases; 50,000 ops keep that within 1 % across
   seeds. *)
let churn_fixed_ops = 50_000

(* Upper bound on timed-phase ops per second the stream is generated
   for (the pinned daemon manages about 14k). *)
let max_rate = 40_000

let churn_flags dir = [ "--state-dir"; dir; "--fsync-policy"; "never" ]

(* Boot a daemon on an empty [dir], drive [ops] through it, wait until
   its journal has handed every record to the OS, and SIGKILL it. *)
let crashed_state ~cts ~log ~dir t (ops : Inputs.stream) =
  let d = boot ~cts ~log (churn_flags dir @ [ "--snapshot-every"; "0" ]) in
  let c = Client.create d.port in
  let n = Array.length ops.Inputs.ops in
  ignore
    (drive c t ~first:0 ~stop:(for_ops n)
       ~issue:(fun i -> Inputs.op_request ops.Inputs.ops.(i))
       ~expect:(fun i r -> Inputs.outcome_ok ops.Inputs.expect.(i) r));
  let deadline = Exact.now () +. 30.0 in
  let rec flushed () =
    let doc = debug_vars c in
    let wal k = number (json_get [ "persist"; k ] doc) in
    if wal "wal_written" >= wal "wal_appended" then ()
    else if Exact.now () > deadline then failwith "journal never caught up"
    else begin
      Unix.sleepf 0.01;
      flushed ()
    end
  in
  flushed ();
  Client.close c;
  crash d

type churn_inputs = {
  prep : Inputs.stream;
  warm : Inputs.stream;
  fixed_s : Inputs.stream;
  timed : Inputs.stream;
}

let churn_inputs ~seed ~timed_ops =
  let ch = Inputs.churn seed in
  let prep = Inputs.churn_stream ch prep_ops in
  let warm = Inputs.churn_stream ch warm_ops in
  let fixed_s = Inputs.churn_stream ch churn_fixed_ops in
  let timed = Inputs.churn_stream ch timed_ops in
  { prep; warm; fixed_s; timed }

let stream_issue (s : Inputs.stream) i = Inputs.op_request s.Inputs.ops.(i)
let stream_expect (s : Inputs.stream) i r = Inputs.outcome_ok s.Inputs.expect.(i) r
let live_after (s : Inputs.stream) = s.Inputs.live_after.(Array.length s.Inputs.live_after - 1)

(* The state dir an earlier daemon life left when it was killed, under
   [dir]; returns its path. *)
let make_crashed ~cts ~dir t inputs =
  let crashed = Filename.concat dir "crashed-state" in
  Proc.rm_rf crashed;
  crashed_state ~cts ~log:(Filename.concat dir "admit_churn.log") ~dir:crashed t inputs.prep;
  Exact.phase "admit_churn: state dir of a killed daemon ready";
  crashed

let admit_churn ~cts ~dir ~seed ~seconds =
  with_echo @@ fun echo ->
  let t = tally () in
  let inputs = churn_inputs ~seed ~timed_ops:(int_of_float (seconds *. float_of_int max_rate)) in
  let log = Filename.concat dir "admit_churn.log" in
  let crashed = make_crashed ~cts ~dir t inputs in
  let state = Filename.concat dir "state" in
  let boot_once () =
    Proc.copy_dir crashed state;
    let t0 = Exact.now () in
    let d = boot ~cts ~log (churn_flags state) in
    let c = Client.create d.port in
    ignore
      (drive c t ~first:0 ~stop:(for_ops warm_ops) ~issue:(stream_issue inputs.warm)
         ~expect:(stream_expect inputs.warm));
    Client.close c;
    (d, Exact.now () -. t0)
  in
  let d, setup_s, raw_setup_s = boot_repeatedly ~echo boot_once in
  Exact.phase "admit_churn: set-up %s s" (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_s)));
  let fixed =
    fixed_phase d t ~first:0 ~ops:churn_fixed_ops ~issue:(stream_issue inputs.fixed_s)
      ~expect:(stream_expect inputs.fixed_s)
  in
  let timed = inputs.timed in
  let loop =
    timed_phase ~limit:(Array.length timed.Inputs.ops) ~echo d t ~seconds ~first:0
      ~issue:(stream_issue timed) ~expect:(stream_expect timed)
  in
  check t (loop.ops < Array.length timed.Inputs.ops) "the generated stream ran out";
  let live = if loop.ops = 0 then live_after inputs.fixed_s else timed.Inputs.live_after.(loop.ops - 1) in
  (match healthz d.port with
  | Some doc -> check t (Inputs.connections_ok ~expected:live doc) "/healthz connections"
  | None -> check t false "/healthz unreadable");
  check t (stop d = Ok ()) "daemon did not drain cleanly on SIGTERM";
  (match Proc.run cts [ "cac"; "verify-state"; state; "--json" ] with
  | Ok (), out -> (
      match Obs.Json.of_string out with
      | Some doc ->
          check t (Inputs.connections_ok ~expected:live doc) "verify-state connection count"
      | None -> check t false "verify-state output unreadable")
  | Error e, _ -> check t false ("verify-state " ^ e));
  { setup_s; raw_setup_s; loop; fixed; tally = t; flags = d.args }
