(* The benchmark's own tests: `run.py --selftest`.  Not part of
   `dune runtest`; they check the benchmark, not the program. *)

let failures = ref 0

let expect name ok =
  Printf.printf "selftest %-4s %s\n%!" (if ok then "ok" else "FAIL") name;
  if not ok then incr failures

let order_statistics () =
  let a = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  let p = Exact.percentile a in
  expect "nearest-rank percentiles of 1..5"
    (List.for_all2 Float.equal
       [ p 0.0; p 0.2; p 0.21; p 0.5; p 0.99; p 1.0 ]
       [ 1.0; 1.0; 2.0; 3.0; 5.0; 5.0 ]);
  expect "median of an even sample is the lower middle" (Float.equal (Exact.median [| 4.0; 1.0; 3.0; 2.0 |]) 2.0);
  expect "percentile leaves its input unsorted" (Float.equal a.(0) 5.0)

let decide_bytes seed =
  String.concat ""
    (Array.to_list (Array.map Inputs.preload_request (Inputs.preload seed))
    @ Array.to_list (Array.map (fun k -> Inputs.key_request Inputs.decide_keys.(k)) (Inputs.decide_stream seed 512)))

let churn_bytes seed =
  let s = Inputs.churn_stream (Inputs.churn seed) 2_000 in
  String.concat "" (Array.to_list (Array.map Inputs.op_request s.Inputs.ops))

let seeded_inputs () =
  expect "decide_hot: same seed, same request bytes" (String.equal (decide_bytes 7) (decide_bytes 7));
  expect "decide_hot: another seed, other request bytes" (not (String.equal (decide_bytes 7) (decide_bytes 8)));
  expect "admit_churn: same seed, same request bytes" (String.equal (churn_bytes 7) (churn_bytes 7));
  expect "admit_churn: another seed, other request bytes" (not (String.equal (churn_bytes 7) (churn_bytes 8)))

let response ?(status = 200) body = { Client.status; body; close = false }

let planted_errors () =
  let e = Inputs.reference_engine () in
  let v = Cac.Engine.evaluate e ~link:"oc3" ~cls:(Inputs.cls "dar3") in
  let body ?(admissible = v.Cac.Engine.admissible) ?(degraded = v.Cac.Engine.degraded) ?(scale = 1.0) () =
    let f = function Some x -> Obs.Json.Float (x *. scale) | None -> Obs.Json.Null in
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("admissible", Obs.Json.Bool admissible);
           ("degraded", Obs.Json.Bool degraded);
           ( "reason",
             match v.Cac.Engine.reason with
             | Some r -> Obs.Json.String (Inputs.reason_name r)
             | None -> Obs.Json.Null );
           ("log10_bop", f v.Cac.Engine.log10_bop);
           ("required_bw", f v.Cac.Engine.required_bw);
         ])
  in
  expect "decide check accepts the reference verdict" (Inputs.verdict_ok v (response (body ())));
  expect "decide check accepts a 1e-12 relative difference" (Inputs.verdict_ok v (response (body ~scale:(1.0 +. 1e-12) ())));
  expect "decide check rejects a flipped verdict" (not (Inputs.verdict_ok v (response (body ~admissible:(not v.Cac.Engine.admissible) ()))));
  expect "decide check rejects a degraded flag" (not (Inputs.verdict_ok v (response (body ~degraded:true ()))));
  expect "decide check rejects a 1e-6 relative difference" (not (Inputs.verdict_ok v (response (body ~scale:(1.0 +. 1e-6) ()))));
  expect "decide check rejects an error status" (not (Inputs.verdict_ok v (response ~status:500 (body ()))));
  let admitted c = Printf.sprintf {|{"admitted":true,"conn":%d}|} c in
  expect "churn check accepts the reference admission" (Inputs.outcome_ok (Inputs.Admitted 41) (response (admitted 41)));
  expect "churn check rejects a wrong connection id" (not (Inputs.outcome_ok (Inputs.Admitted 41) (response (admitted 42))));
  expect "churn check rejects an admission the reference refused"
    (not (Inputs.outcome_ok (Inputs.Rejected "clr_exceeded") (response (admitted 41))));
  expect "churn check rejects a wrong reason"
    (not (Inputs.outcome_ok (Inputs.Rejected "clr_exceeded") (response {|{"admitted":false,"reason":"unstable"}|})));
  let doc n = Obs.Json.Obj [ ("connections", Obs.Json.Int n) ] in
  expect "connection count check accepts the live count" (Inputs.connections_ok ~expected:20 (doc 20));
  expect "connection count check rejects a wrong count" (not (Inputs.connections_ok ~expected:20 (doc 19)));
  let an m_star = { Core.Cts.m_star; rate = 1.0; scanned_up_to = m_star } in
  expect "CTS check accepts m* = 1 at b = 0, non-decreasing" (Repro.check "x" (Repro.Cts [| (0.0, an 1); (1.0, an 3) |]));
  expect "CTS check rejects m* = 2 at b = 0" (not (Repro.check "x" (Repro.Cts [| (0.0, an 2); (1.0, an 3) |])));
  expect "CTS check rejects a decreasing m*" (not (Repro.check "x" (Repro.Cts [| (0.0, an 1); (1.0, an 4); (2.0, an 3) |])));
  expect "CTS check rejects a non-finite rate"
    (not (Repro.check "x" (Repro.Cts [| (0.0, { (an 1) with Core.Cts.rate = nan }) |])));
  let br x = { Core.Bahadur_rao.log10_bop = x; bop = 10.0 ** x; cts = an 1 } in
  let curve = Repro.Br [| (0.0, br (-3.0)); (1.0, br (-5.0)); (2.0, br (-8.0)) |] in
  let reference = [ ("fig", [| -3.0; -5.0; -8.0 |]) ] in
  expect "BR check accepts the recorded values" (Repro.check ~reference "fig" curve);
  expect "BR check rejects a changed value"
    (not (Repro.check ~reference:[ ("fig", [| -3.0; -5.0; -8.001 |]) ] "fig" curve));
  expect "max_admissible check rejects a changed count"
    (not (Repro.check ~reference:[ ("adm", [| 30.0 |]) ] "adm" (Repro.Adm 29)));
  let ci x = { Stats.Ci.point = x; half_width = 0.0; level = 0.95 } in
  expect "CLR check accepts a non-increasing curve in [0, 1]" (Repro.check "x" (Repro.Clr [| ci 0.1; ci 0.01; ci 0.0 |]));
  expect "CLR check rejects a value above 1" (not (Repro.check "x" (Repro.Clr [| ci 1.5; ci 0.01 |])));
  expect "CLR check rejects an increasing curve" (not (Repro.check "x" (Repro.Clr [| ci 0.01; ci 0.1 |])))

(* The same pool the daemon runs, with a 3-request keep-alive budget:
   ten requests must all be answered, over at least four connections. *)
let request_budget () =
  let api = Srv.Cac_api.create (Inputs.reference_engine ()) in
  let config = { Srv.Pool.default_config with Srv.Pool.domains = 1; max_conn_requests = 3 } in
  let pool = Srv.Pool.create ~config (Srv.Cac_api.router api) in
  let fd = Srv.Pool.listen ~host:"127.0.0.1" ~port:0 () in
  let server = Domain.spawn (fun () -> Srv.Pool.serve pool fd) in
  let c = Client.create (Srv.Pool.bound_port fd) in
  let statuses =
    Fun.protect
      ~finally:(fun () ->
        Client.close c;
        Srv.Pool.stop pool;
        Domain.join server;
        Unix.close fd)
      (fun () -> List.init 10 (fun _ -> (Client.request c (Client.get "/healthz")).Client.status))
  in
  expect "client survives the server's keep-alive request budget"
    (List.for_all (( = ) 200) statuses && c.Client.reconnects >= 3)

let run () =
  order_statistics ();
  seeded_inputs ();
  planted_errors ();
  request_budget ();
  Printf.printf "selftest: %d failed\n" !failures;
  !failures = 0
