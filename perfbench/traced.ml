(* The traced run: per-layer numbers for every layer, whichever the
   workload.  The workload's own serving stream (decide for decide_hot
   and reproduce, churn for admit_churn) supplies the srv/obs rows and
   is also run briefly against the real daemon, for the part of a round
   trip the in-process ledger does not see; the other stream and the
   kernel set run in-process at a smaller size.  End-to-end numbers
   never come from here. *)

let big = 20_000
let small = 5_000

let run ~cts ~dir ~workload ~seed ~seconds =
  let own_churn = String.equal workload "admit_churn" in
  (* The real daemon, untraced, on the workload's own stream. *)
  let brief = Float.min seconds 3.0 in
  let r =
    if own_churn then Serving.admit_churn ~cts ~dir ~seed ~seconds:brief
    else Serving.decide_hot ~cts ~dir ~seed ~seconds:brief
  in
  let t = r.Serving.tally in
  let crashed =
    if own_churn then Filename.concat dir "crashed-state"
    else Serving.make_crashed ~cts ~dir t (Serving.churn_inputs ~seed ~timed_ops:0)
  in
  let daemon_p50_us = Exact.median r.Serving.loop.Serving.lat *. 1e6 in
  let loop_ops = float_of_int (max 1 r.Serving.loop.Serving.ops) in
  (* In-process: the own stream first, so obs.series counts its stack. *)
  let decide () = Ledger.decide ~seed ~n:(if own_churn then small else big) t in
  let churn () = Ledger.churn ~crashed ~dir ~seed ~n:(if own_churn then big else small) t in
  let (dsp, d), (csp, c, churn_rows) =
    if own_churn then
      let c = churn () in
      (decide (), c)
    else
      let d = decide () in
      (d, churn ())
  in
  let own = if own_churn then c else d and other = if own_churn then d else c in
  let own_names = List.map (fun (n, _, _) -> n) own.Ledger.rows in
  let other_rows = List.filter (fun (n, _, _) -> not (List.mem n own_names)) other.Ledger.rows in
  let ksp, kernel_rows, kernel_overhead, k_attempted, k_failed =
    Repro.ledger ~seed ~passes:(if String.equal workload "reproduce" then 3 else 1)
  in
  let overhead = if String.equal workload "reproduce" then kernel_overhead else own.Ledger.overhead in
  List.iter
    (fun (sp, name) -> Ledger.Spans.dump sp (Filename.concat dir name))
    [ (dsp, "spans-decide.jsonl"); (csp, "spans-churn.jsonl"); (ksp, "spans-kernel.jsonl") ];
  let rows =
    own.Ledger.rows @ other_rows @ churn_rows @ kernel_rows
    @ [
        ("srv.ledger_gap_us", daemon_p50_us -. own.Ledger.ledger_us, "us");
        ("obs.spans_per_op", r.Serving.fixed.Serving.spans_per_op, "count");
        ("loadgen.cpu_us_per_op", r.Serving.loop.Serving.client_cpu_s *. 1e6 /. loop_ops, "us");
        ("trace.overhead_ratio", overhead, "1");
      ]
  in
  Exact.phase "trace: daemon p50 %.1f us, in-process ledger %.1f us" daemon_p50_us own.Ledger.ledger_us;
  ( List.map (fun (n, v, u) -> (n, v, u, 1)) rows,
    t.Serving.attempted + k_attempted,
    t.Serving.failed + k_failed,
    t.Serving.notes,
    r.Serving.flags )
