(* perfbench: the repository benchmark.  See README.md.

   main.exe --cts PATH --dir DIR --workload NAME --seed N --seconds S --trace 0|1
   main.exe --cts PATH --dir DIR --selftest

   Prints every metric by name with its unit and sample count, a run
   stamp, and, as the last line of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Exits 1 when a
   correctness check fails. *)

let workloads = [ "decide_hot"; "admit_churn"; "reproduce" ]

type metric = string * float * string * int

let json_number v = Printf.sprintf "%.17g" v

let report ~attempted ~failed (metrics : metric list) =
  List.iter
    (fun (name, value, unit, n) -> Printf.printf "%-40s %16.6f %-6s (n=%d)\n" name value unit n)
    metrics;
  let finite = List.for_all (fun (_, v, _, _) -> Float.is_finite v) metrics in
  if not finite then print_endline "perfbench: a metric is not finite";
  let correct = failed = 0 && attempted > 0 && finite in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, value, unit, _) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (if Float.is_finite value then json_number value else "null")
              unit)
          metrics));
  correct

let nproc () =
  List.length
    (List.filter (String.starts_with ~prefix:"processor") (Proc.lines "/proc/cpuinfo"))

(* The run stamp: where and how the numbers were taken.  Steal is
   recorded here only; no figure is selected by it. *)
let stamp ~workload ~seed ~seconds ~trace ~steal ~extra =
  let open Obs.Json in
  print_endline
    ("perfbench: stamp "
    ^ to_string
        (Obj
           ([
              ("workload", String workload);
              ("seed", Int seed);
              ("seconds", Float seconds);
              ("trace", Bool trace);
              ("nproc", Int (nproc ()));
              ("ocaml", String Sys.ocaml_version);
              ("cpus_allowed", String (Proc.cpus_allowed ()));
              ("clock", String (Obs.Clock.source ()));
              ("host_steal_share", Float steal);
            ]
           @ extra)))

let print_notes notes = List.iter (fun n -> print_endline ("check FAIL " ^ n)) (List.rev notes)

let run_serving ~cts ~dir ~workload ~seed ~seconds =
  let r =
    match workload with
    | "decide_hot" -> Serving.decide_hot ~cts ~dir ~seed ~seconds
    | _ -> Serving.admit_churn ~cts ~dir ~seed ~seconds
  in
  let t = r.Serving.tally in
  print_notes t.Serving.notes;
  let extra =
    [
      ("daemon_flags", Obs.Json.String (String.concat " " r.Serving.flags));
      ("raw", Serving.raw r);
      ( "loadgen_cpu_us_per_op",
        Obs.Json.Float (r.Serving.loop.Serving.client_cpu_s *. 1e6 /. float_of_int (max 1 r.Serving.loop.Serving.ops)) );
    ]
  in
  (Serving.metrics r, t.Serving.attempted, t.Serving.failed, extra)

let () =
  let cts = ref "" and dir = ref ".perfbench-work" and workload = ref "" in
  let seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and selftest = ref false in
  let repro_setup = ref false and print_reference = ref false and calibrate = ref false in
  let echo = ref false in
  Arg.parse
    [
      ("--cts", Arg.Set_string cts, "PATH the cts_cli executable");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for logs and state");
      ("--workload", Arg.Symbol (workloads, fun w -> workload := w), " workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--selftest", Arg.Set selftest, " run the benchmark's own tests");
      ("--repro-setup", Arg.Set repro_setup, " (internal) one reproduce set-up in this process");
      ("--print-reference", Arg.Set print_reference, " print reference.ml for the reproduce checks");
      ("--echo", Arg.Set echo, " (internal) echo standard input to standard output");
      ("--calibrate", Arg.Set calibrate, " time the calibration kernel (to re-derive Calib.reference_s)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --cts PATH --workload NAME --seed N --seconds S --trace 0|1";
  at_exit Proc.kill_all;
  if !repro_setup then (Repro.setup_child ~seed:!seed; exit 0);
  if !print_reference then (Repro.print_reference (); exit 0);
  if !echo then (Calib.echo_loop (); exit 0);
  if !calibrate then begin
    let e = Calib.start_echo () in
    let show name f =
      let times = Array.init 200 (fun _ -> snd (Exact.timed f)) in
      Printf.printf "%s: min %.6f s, p10 %.6f s, median %.6f s\n" name (Exact.percentile times 0.0)
        (Exact.percentile times 0.1) (Exact.median times)
    in
    show "kernel" (fun () -> ignore (Calib.kernel ()));
    show "echo" (fun () -> Calib.ping_pong e);
    Calib.stop_echo e;
    exit 0
  end;
  if !cts = "" || not (Sys.file_exists !cts) then begin
    prerr_endline "perfbench: --cts must name the cts_cli executable";
    exit 2
  end;
  (try Unix.mkdir !dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if !selftest then exit (if Selftest.run () then 0 else 1);
  if !workload = "" then begin
    prerr_endline "perfbench: --workload is required";
    exit 2
  end;
  let dir = Filename.concat !dir !workload in
  Proc.rm_rf dir;
  Unix.mkdir dir 0o755;
  let h0 = Proc.host_ticks () in
  let metrics, attempted, failed, extra =
    match (!workload, !trace) with
    | w, 0 when w <> "reproduce" -> run_serving ~cts:!cts ~dir ~workload:w ~seed:!seed ~seconds:!seconds
    | "reproduce", 0 ->
        let r = Repro.run ~seed:!seed ~seconds:!seconds in
        let metrics, raw = Repro.metrics r in
        (metrics, r.Repro.attempted, r.Repro.failed, [ ("raw", raw) ])
    | w, _ ->
        let metrics, attempted, failed, notes, flags =
          Traced.run ~cts:!cts ~dir ~workload:w ~seed:!seed ~seconds:!seconds
        in
        print_notes notes;
        (metrics, attempted, failed, [ ("daemon_flags", Obs.Json.String (String.concat " " flags)) ])
  in
  stamp ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    ~steal:(Proc.steal_share h0 (Proc.host_ticks ()))
    ~extra;
  exit (if report ~attempted ~failed metrics then 0 else 1)
