(* The reproduce workload: a fixed set of the paper's figure series,
   computed in-process through the public functions lib/experiments
   calls, with no HTTP.  One op is one series (one model's curve in
   one figure). *)

type model = { name : string; process : Traffic.Process.t }

let build_models () =
  let v x = (Traffic.Models.v ~v:x).Traffic.Models.process in
  let z a = (Traffic.Models.z ~a).Traffic.Models.process in
  List.map (fun x -> { name = Printf.sprintf "V^%g" x; process = v x }) Traffic.Models.v_values
  @ List.map (fun a -> { name = Printf.sprintf "Z^%g" a; process = z a }) Traffic.Models.z_values
  @ List.map
      (fun p -> { name = Printf.sprintf "DAR(%d)" p; process = Traffic.Models.s ~a:0.975 ~p })
      [ 1; 2; 3 ]
  @ [ { name = "L"; process = Traffic.Models.l () } ]

let find models name = List.find (fun m -> String.equal m.name name) models

(* The paper's scenario constants (lib/experiments/common.ml). *)
let ts = Traffic.Models.ts
let n_fig4 = 100
let c_fig4 = 526.0
let n_main = 30
let c_main = 538.0

let per_source_cells ~msec ~n ~c =
  Queueing.Units.buffer_cells_of_msec ~msec ~service_cells_per_frame:(float_of_int n *. c) ~ts
  /. float_of_int n

(* Fig. 4's axis with b = 0 in front, where m*_b must be 1. *)
let fig4_msec =
  [| 0.0; 0.5; 1.0; 1.5; 2.0; 3.0; 4.0; 5.0; 6.0; 8.0; 10.0; 12.0; 15.0; 18.0; 21.0; 24.0; 27.0; 30.0 |]

let practical_msec = [| 0.5; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 8.0; 10.0; 12.0; 15.0; 20.0; 25.0; 30.0 |]
let wide_msec = Numerics.Float_array.logspace ~lo:1.0 ~hi:2000.0 ~n:24
let clr_msec = [| 0.0; 0.25; 0.5; 1.0; 1.5; 2.0; 3.0; 5.0; 8.0; 12.0; 20.0; 30.0 |]

(* Sec. 5.4's link. *)
let link_capacity = 16140.0
let link_buffer_msec = 10.0

(* Figs. 8-9 at reduced scale (the paper: 500k frames x 60 reps).
   Fixed, so a pass's work does not depend on speed. *)
let sim_frames = 200
let sim_reps = 2

type kind = Cts_curve | Br_curve | Max_admissible | Clr_curve
type item = { kind : kind; label : string; model : model }

(* One pass, balanced to about a second on a 2-vCPU VM: every kernel
   and both kinds of model, without the series that would dominate it
   (Fig. 7's V^v and Z^0.7 curves, simulated V^v at ~1 ms per
   source-frame). *)
let items models =
  let mk kind fig names =
    List.map (fun n -> { kind; label = fig ^ ":" ^ n; model = find models n }) names
  in
  mk Cts_curve "fig4" [ "V^0.67"; "Z^0.975"; "Z^0.7"; "DAR(1)"; "DAR(3)"; "L" ]
  @ mk Br_curve "fig5" (List.map (fun m -> m.name) models)
  @ mk Br_curve "fig7" [ "Z^0.975"; "DAR(1)"; "DAR(2)"; "DAR(3)"; "L" ]
  @ mk Max_admissible "adm" [ "V^1"; "Z^0.975"; "DAR(1)"; "DAR(2)"; "DAR(3)"; "L" ]
  @ mk Clr_curve "fig8" [ "Z^0.975"; "DAR(1)"; "DAR(3)"; "L" ]

let vg (p : Traffic.Process.t) =
  Core.Variance_growth.create ~acf:p.Traffic.Process.acf ~variance:p.Traffic.Process.variance

type value =
  | Cts of (float * Core.Cts.analysis) array
  | Br of (float * Core.Bahadur_rao.result) array
  | Adm of int
  | Clr of Stats.Ci.interval array

(* [wrap.f name k] runs one kernel call; the traced run records a span
   around it. *)
type wrap = { f : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { f = (fun _ k -> k ()) }

let compute ?(wrap = untraced) ~seed it =
  let p = it.model.process in
  let mu = p.Traffic.Process.mean in
  match it.kind with
  | Cts_curve ->
      let buffers = Array.map (fun msec -> per_source_cells ~msec ~n:n_fig4 ~c:c_fig4) fig4_msec in
      Cts (wrap.f "core.cts_curve" (fun () -> Core.Cts.curve (vg p) ~mu ~c:c_fig4 ~buffers))
  | Br_curve ->
      let msec = if String.starts_with ~prefix:"fig7" it.label then wide_msec else practical_msec in
      let buffers = Array.map (fun msec -> per_source_cells ~msec ~n:n_main ~c:c_main) msec in
      Br (wrap.f "core.br_curve" (fun () -> Core.Bahadur_rao.curve (vg p) ~mu ~c:c_main ~n:n_main ~buffers))
  | Max_admissible ->
      let total_buffer =
        Queueing.Units.buffer_cells_of_msec ~msec:link_buffer_msec
          ~service_cells_per_frame:link_capacity ~ts
      in
      Adm
        (wrap.f "core.max_admissible" (fun () ->
             Core.Admission.max_admissible (vg p) ~mu ~total_capacity:link_capacity ~total_buffer
               ~target_clr:1e-6))
  | Clr_curve ->
      let sc = Queueing.Scenario.make ~model:p ~n:n_main ~c:c_main ~ts in
      Clr
        (wrap.f "queueing.clr_curve" (fun () ->
             Queueing.Scenario.clr_curve sc ~buffers_msec:clr_msec ~frames:sim_frames ~reps:sim_reps
               ~seed))

(* What a value is checked against the recorded reference by: the
   first, middle and last log10 BOP of a curve, or the admissible count. *)
let fingerprint = function
  | Br r ->
      let n = Array.length r in
      Some (Array.map (fun i -> (snd r.(i)).Core.Bahadur_rao.log10_bop) [| 0; n / 2; n - 1 |])
  | Adm n -> Some [| float_of_int n |]
  | Cts _ | Clr _ -> None

let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let rec nondecreasing = function
  | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
  | _ -> true

(* The checks:
   - CTS: m*_b = 1 at b = 0, finite rates, m*_b non-decreasing in b;
   - Bahadur-Rao and max_admissible: the recorded reference values;
   - simulated CLR: in [0, 1] and non-increasing in the buffer. *)
let check ?(reference = Reference.values) label v =
  match v with
  | Cts a ->
      Array.length a > 0
      && Float.equal (fst a.(0)) 0.0
      && (snd a.(0)).Core.Cts.m_star = 1
      && Array.for_all (fun (_, an) -> Float.is_finite an.Core.Cts.rate) a
      && nondecreasing (Array.to_list (Array.map (fun (_, an) -> an.Core.Cts.m_star) a))
  | Clr a ->
      let pts = Array.to_list (Array.map (fun ci -> ci.Stats.Ci.point) a) in
      List.for_all (fun x -> x >= 0.0 && x <= 1.0) pts && nondecreasing (List.rev pts)
  | Br _ | Adm _ -> (
      match (fingerprint v, List.assoc_opt label reference) with
      | Some got, Some want -> Array.length got = Array.length want && Array.for_all2 rel_close got want
      | _ -> false)

(* Lags the CTS scans looked at: an exact count of V(m) work. *)
let scan_lags = function
  | Cts a -> Array.fold_left (fun acc (_, an) -> acc + an.Core.Cts.scanned_up_to) 0 a
  | Br r -> Array.fold_left (fun acc (_, x) -> acc + x.Core.Bahadur_rao.cts.Core.Cts.scanned_up_to) 0 r
  | Adm _ | Clr _ -> 0

type timing = { seconds : float; ok : bool; lags : int }

let run_item ?wrap ~seed it =
  let v, seconds = Exact.timed (fun () -> compute ?wrap ~seed it) in
  { seconds; ok = check it.label v; lags = scan_lags v }

let run_pass ?wrap ~seed items = List.map (run_item ?wrap ~seed) items

(* A pass with a {!Calib} reading before any series that starts more
   than {!Calib.period} after the last one, and one after the pass;
   each series' time is also returned scaled by the mean of the two
   readings around it. *)
let run_pass_calibrated ~seed items =
  let readings = ref [ Calib.read () ] and last = ref (Exact.now ()) in
  let timed =
    List.map
      (fun it ->
        if Exact.now () -. !last >= Calib.period then begin
          readings := Calib.read () :: !readings;
          last := Exact.now ()
        end;
        (run_item ~seed it, List.length !readings - 1))
      items
  in
  readings := Calib.read () :: !readings;
  let r = Array.of_list (List.rev !readings) in
  List.map (fun (t, j) -> (t, t.seconds *. (r.(j) +. r.(j + 1)) /. 2.0)) timed

(* {2 The untraced run} *)

(* Set-up: build the model set and run the first pass of a fresh
   process, which grows the heap to its working size (a first pass is
   about a third slower than later ones).  That is what a user waits
   for before the first figure; the model set alone takes ~0.1 ms,
   too little to time steadily. *)
let setup ~seed =
  let (set, first), s =
    Exact.timed (fun () ->
        let set = items (build_models ()) in
        (set, run_pass ~seed set))
  in
  (set, first, s)

(* [main.exe --repro-setup]: one set-up in a fresh process, reported as
   "SECONDS OK" on standard output. *)
let setup_child ~seed =
  let _, first, s = setup ~seed in
  Printf.printf "%.17g %b\n%!" s (List.for_all (fun t -> t.ok) first)

let setups = 5

type result = {
  setup_s : float array;  (** scaled to the reference host *)
  raw_setup_s : float array;
  passes : (timing * float) list array;  (** each series: as measured, scaled *)
  cpu_s : float;
  norm_cpu_s : float;
  alloc_words_per_op : float;
  rss_mb : float;
  attempted : int;
  failed : int;
}

let run ~seed ~seconds =
  (* Each set-up between two calibration readings. *)
  let calibrated f =
    let f0 = Calib.read () in
    let r = f () in
    (r, (f0 +. Calib.read ()) /. 2.0)
  in
  let (set, first, s0), k0 = calibrated (fun () -> setup ~seed) in
  let failed = ref (List.length (List.filter (fun t -> not t.ok) first)) in
  let attempted = ref (List.length first) in
  (* The other set-ups, each in a fresh process. *)
  let more =
    List.init (setups - 1) (fun _ ->
        calibrated (fun () ->
            match Proc.run Sys.executable_name [ "--repro-setup"; "--seed"; string_of_int seed ] with
            | Ok (), out -> Scanf.sscanf out "%f %B" (fun s ok -> (s, ok))
            | Error e, _ -> failwith ("reproduce set-up child " ^ e)))
  in
  List.iter
    (fun ((_, ok), _) ->
      incr attempted;
      if not ok then incr failed)
    more;
  let setups = (s0, k0) :: List.map (fun ((s, _), k) -> (s, k)) more in
  (* One pass of fixed work for the allocation and peak-RSS readings. *)
  let w0 = Gc.minor_words () in
  let fixed = run_pass ~seed set in
  let alloc = (Gc.minor_words () -. w0) /. float_of_int (List.length fixed) in
  let rss_mb = Proc.peak_rss_mb "self" in
  (* Whole passes for [seconds]. *)
  let passes = ref [] and cpu_s = ref 0.0 and norm_cpu_s = ref 0.0 in
  let t0 = Exact.now () in
  while Exact.now () -. t0 < seconds || List.length !passes < 2 do
    let c0 = Proc.cpu_s "self" in
    let p = run_pass_calibrated ~seed set in
    let c = Proc.cpu_s "self" -. c0 in
    let raw = Exact.sum (Array.of_list (List.map (fun (t, _) -> t.seconds) p)) in
    let scaled = Exact.sum (Array.of_list (List.map snd p)) in
    cpu_s := !cpu_s +. c;
    norm_cpu_s := !norm_cpu_s +. (c *. scaled /. raw);
    passes := p :: !passes
  done;
  let passes = Array.of_list (List.rev !passes) in
  Array.iter
    (List.iter (fun t ->
         incr attempted;
         if not t.ok then incr failed))
    (Array.append [| fixed |] (Array.map (List.map fst) passes));
  {
    setup_s = Array.of_list (List.map (fun (s, k) -> s *. k) setups);
    raw_setup_s = Array.of_list (List.map fst setups);
    passes;
    cpu_s = !cpu_s;
    norm_cpu_s = !norm_cpu_s;
    alloc_words_per_op = alloc;
    rss_mb;
    attempted = !attempted;
    failed = !failed;
  }

(* p50 is pooled over every series of the run.  p99 is taken per pass
   (where it is the pass's slowest series) and the median over passes
   reported: pooled, it would be the third-slowest of ~320 samples and
   follow one unlucky series. *)
let metrics r =
  let per_pass = List.length r.passes.(0) in
  let all f = Array.of_list (List.concat_map (List.map f) (Array.to_list r.passes)) in
  let times = all (fun (_, s) -> s *. 1e6) in
  let per_pass_median stat f = Exact.median (Array.map (fun p -> stat (Array.of_list (List.map f p))) r.passes) in
  let rate f = per_pass_median (fun a -> float_of_int per_pass /. Exact.sum a) f in
  let p99 f = per_pass_median (fun a -> Exact.percentile a 0.99 *. 1e6) f in
  let n = Array.length times in
  ( [
      ("setup_s", Exact.median r.setup_s, "s", Array.length r.setup_s);
      ("throughput_ops", rate snd, "1/s", n);
      ("p50_us", Exact.percentile times 0.5, "us", n);
      ("p99_us", p99 snd, "us", n);
      ("cpu_us_per_op", r.norm_cpu_s *. 1e6 /. float_of_int n, "us", n);
      ("alloc_words_per_op", r.alloc_words_per_op, "words", per_pass);
      ("rss_mb", r.rss_mb, "MiB", 1);
      ("ok_ratio", float_of_int (r.attempted - r.failed) /. float_of_int r.attempted, "1", r.attempted);
    ],
    let raw = all (fun (t, _) -> t.seconds *. 1e6) in
    Obs.Json.Obj
      [
        ("setup_s", Obs.Json.Float (Exact.median r.raw_setup_s));
        ("throughput_ops", Obs.Json.Float (rate (fun (t, _) -> t.seconds)));
        ("p50_us", Obs.Json.Float (Exact.percentile raw 0.5));
        ("p99_us", Obs.Json.Float (p99 (fun (t, _) -> t.seconds)));
        ("cpu_us_per_op", Obs.Json.Float (r.cpu_s *. 1e6 /. float_of_int n));
      ] )

(* Print the reference table {!check} compares Bahadur-Rao and
   max_admissible values against (reference.ml). *)
let print_reference () =
  let float_literal x =
    let s = Printf.sprintf "%.17g" x in
    if String.contains s '.' || String.contains s 'e' then s else s ^ "."
  in
  print_string
    "(* Recorded Bahadur-Rao log10 BOP (first, middle and last buffer of\n\
    \   each curve) and max_admissible results of the reproduce figure\n\
    \   set.  Regenerate with [main.exe --print-reference]. *)\n\n\
     let values =\n  [\n";
  List.iter
    (fun it ->
      match fingerprint (compute ~seed:0 it) with
      | Some a ->
          Printf.printf "    (%S, [| %s |]);\n" it.label
            (String.concat "; " (Array.to_list (Array.map float_literal a)))
      | None -> ())
    (items (build_models ()));
  print_string "  ]\n"

(* {2 The kernel ledger of a traced run} *)

(* Microseconds per frame of [Traffic.Process.generate], median of 3. *)
let generate_us_per_frame (p : Traffic.Process.t) frames =
  let times =
    Array.init 3 (fun k ->
        let rng = Numerics.Rng.create ~seed:(17 + k) in
        snd (Exact.timed (fun () -> ignore (Traffic.Process.generate p rng frames))))
  in
  Exact.median times *. 1e6 /. float_of_int frames

(* Nanoseconds per frame of [Queueing.Fluid_mux.clr_multi] over a
   pre-generated DAR(3) aggregate, median of 3. *)
let clr_multi_ns_per_frame models frames =
  let p = (find models "DAR(3)").process in
  let sc = Queueing.Scenario.make ~model:p ~n:n_main ~c:c_main ~ts in
  let rng = Numerics.Rng.create ~seed:5 in
  let sources =
    Array.init n_main (fun i -> Traffic.Process.generate p (Numerics.Rng.jump_to_substream rng i) frames)
  in
  let agg = Array.init frames (fun f -> Array.fold_left (fun acc s -> acc +. s.(f)) 0.0 sources) in
  let buffers = Queueing.Scenario.buffers_of_msec sc clr_msec in
  let times =
    Array.init 3 (fun _ ->
        let i = ref 0 in
        let next_frame () =
          let x = agg.(!i) in
          incr i;
          x
        in
        snd
          (Exact.timed (fun () ->
               ignore
                 (Queueing.Fluid_mux.clr_multi ~next_frame ~service:(Queueing.Scenario.service sc)
                    ~buffers ~frames ~warmup:0 ()))))
  in
  Exact.median times *. 1e9 /. float_of_int frames

(* [passes] pairs of an untraced and a traced pass; returns the span
   recorder, the per-layer rows, the traced / untraced throughput
   ratio, and the checks' (attempted, failed). *)
let ledger ~seed ~passes =
  let models = build_models () in
  let set = items models in
  let sp = Ledger.Spans.create () in
  let wrap = { f = (fun name k -> Ledger.Spans.with_ sp name k) } in
  ignore (run_pass ~seed set);
  let untraced = Exact.Vec.create () and traced = Exact.Vec.create () in
  let lags = ref 0 and attempted = ref 0 and failed = ref 0 in
  let tally ts =
    List.iter
      (fun t ->
        incr attempted;
        if not t.ok then incr failed)
      ts
  in
  for k = 1 to passes do
    let ts, s = Exact.timed (fun () -> run_pass ~seed set) in
    tally ts;
    Exact.Vec.push untraced s;
    sp.Ledger.Spans.op <- k;
    let ts, s = Exact.timed (fun () -> run_pass ~wrap ~seed set) in
    tally ts;
    lags := List.fold_left (fun acc t -> acc + t.lags) 0 ts;
    Exact.Vec.push traced s
  done;
  let m name = (find models name).process in
  let ms name = Ledger.Spans.mean_ms sp name in
  let rows =
    [
      ("core.cts_curve_ms", ms "core.cts_curve", "ms");
      ("core.br_curve_ms", ms "core.br_curve", "ms");
      ("core.max_admissible_ms", ms "core.max_admissible", "ms");
      ("core.scan_lags", float_of_int !lags, "count");
      ("traffic.generate_us_per_frame.fbndp_v", generate_us_per_frame (m "V^1") 1000, "us");
      ("traffic.generate_us_per_frame.fbndp_z", generate_us_per_frame (m "Z^0.975") 4000, "us");
      ("traffic.generate_us_per_frame.fbndp_l", generate_us_per_frame (m "L") 4000, "us");
      ("traffic.generate_us_per_frame.dar", generate_us_per_frame (m "DAR(3)") 100_000, "us");
      ("queueing.clr_multi_ns_per_frame", clr_multi_ns_per_frame models 20_000, "ns");
      ("queueing.clr_curve_s", ms "queueing.clr_curve" /. 1e3, "s");
    ]
  in
  let overhead = Exact.median (Exact.Vec.to_array untraced) /. Exact.median (Exact.Vec.to_array traced) in
  (sp, rows, overhead, !attempted, !failed)
