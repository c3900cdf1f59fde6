(* Seeded workload inputs and the reference answers they must get.

   Everything a run sends is derived here from the --seed argument; the
   daemon receives only the resulting request bytes.  Expected answers
   come from an in-process reference [Cac.Engine] with the same links
   and the same history. *)

type link = { id : string; capacity : float; buffer_msec : float; clr : float }

(* The links of examples/cac_server.ml (and `cts serve`'s default). *)
let links =
  [|
    { id = "oc3"; capacity = 16140.0; buffer_msec = 20.0; clr = 1e-6 };
    { id = "access"; capacity = 5380.0; buffer_msec = 10.0; clr = 1e-6 };
  |]

let link_flags =
  List.concat_map
    (fun l -> [ "--link"; Printf.sprintf "%s=%g:%g:%g" l.id l.capacity l.buffer_msec l.clr ])
    (Array.to_list links)

let cls = Cac.Source_class.of_name_exn
let rng seed salt = Random.State.make [| seed; salt |]

let reference_engine () =
  let e = Cac.Engine.create () in
  Array.iter
    (fun l ->
      ignore
        (Cac.Engine.add_link_msec e ~id:l.id ~capacity:l.capacity ~buffer_msec:l.buffer_msec
           ~target_clr:l.clr))
    links;
  e

let body link c = Printf.sprintf {|{"link":"%s","class":"%s"}|} link c
let decide_request link c = Client.post "/v1/decide" (body link c)
let admit_request link c = Client.post "/v1/admit" (body link c)
let release_request conn = Client.post "/v1/release" (Printf.sprintf {|{"conn":%d}|} conn)

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type op = Admit of int * int  (** link, class *) | Release of int  (** conn *)

type outcome = Admitted of int | Rejected of string  (** reason *) | Released

let reason_name = function
  | Cac.Engine.Unstable -> "unstable"
  | Cac.Engine.Clr_exceeded -> "clr_exceeded"

let outcome_of_decision = function
  | Cac.Engine.Admitted conn -> Admitted conn
  | Cac.Engine.Rejected r -> Rejected (reason_name r)

(* {2 decide_hot} *)

(* LRD (Z^0.975, L) and Markov (DAR(1-3), MPEG) classes side by side:
   the LRD ones make the cold set-up expensive, every class is a
   cache hit once warm. *)
let decide_classes = [| "z0.975"; "l"; "dar1"; "dar2"; "dar3"; "mpeg" |]

(* Connections admitted before any decision, as (link, class) indices
   in admission order: two of every class on oc3, one each of Z^0.975,
   L, DAR(3) and MPEG on access.  The seed orders them.  The multiset
   is fixed and the first two admissions on a link are of different
   classes, so every class's effective bandwidth is priced at every
   count it passes through, whatever the order: the final state and
   the set-up's kernel work do not depend on the seed.  (Were the
   first two alike, the link would price them homogeneously and skip
   that class's costliest, one-source effective bandwidth.) *)
let preload seed =
  let oc3 = Array.init (2 * Array.length decide_classes) (fun i -> (0, i mod Array.length decide_classes)) in
  let access = [| (1, 0); (1, 1); (1, 4); (1, 5) |] in
  let st = rng seed 1 in
  let mixed_start a =
    let a = shuffle st a in
    (match Array.find_index (fun (_, c) -> c <> snd a.(0)) a with
    | Some j when j > 1 ->
        let x = a.(1) in
        a.(1) <- a.(j);
        a.(j) <- x
    | _ -> ());
    a
  in
  Array.append (mixed_start oc3) (mixed_start access)

(* Every (link, class) key the decide stream asks about. *)
let decide_keys =
  Array.concat
    (List.init (Array.length links) (fun l ->
         Array.init (Array.length decide_classes) (fun c -> (l, c))))

let key_request (l, c) = decide_request links.(l).id decide_classes.(c)
let preload_request (l, c) = admit_request links.(l).id decide_classes.(c)

(* The decision stream: keys drawn uniformly, cycled by the load loop. *)
let decide_stream seed n =
  let st = rng seed 2 in
  Array.init n (fun _ -> Random.State.int st (Array.length decide_keys))

(* The reference engine after the preload, and the answer each preload
   admission must get. *)
let decide_reference seed =
  let e = reference_engine () in
  let outcomes =
    Array.map
      (fun (l, c) ->
        outcome_of_decision (Cac.Engine.admit e ~link:links.(l).id ~cls:(cls decide_classes.(c))))
      (preload seed)
  in
  (e, outcomes)

(* {2 admit_churn} *)

(* Markov classes only: a cold evaluation costs milliseconds, so the
   churn measures the write path and not the LRD kernels. *)
let churn_classes = [| "dar1"; "dar2"; "dar3"; "mpeg" |]

(* Live population kept between these bounds. *)
let churn_lo = 16
let churn_hi = 28

type churn = {
  engine : Cac.Engine.t;
  st : Random.State.t;
  mutable live : int array;
  mutable n_live : int;
}

let churn seed =
  { engine = reference_engine (); st = rng seed 3; live = Array.make 64 0; n_live = 0 }

(* The next op of the seeded stream, applied to the reference engine;
   returns the op and the answer the daemon must give. *)
let next_op ch =
  let admit =
    if ch.n_live < churn_lo then true
    else if ch.n_live > churn_hi then false
    else Random.State.bool ch.st
  in
  if admit then begin
    let l = if Random.State.int ch.st 4 = 0 then 1 else 0 in
    let c = Random.State.int ch.st (Array.length churn_classes) in
    let out = outcome_of_decision (Cac.Engine.admit ch.engine ~link:links.(l).id ~cls:(cls churn_classes.(c))) in
    (match out with
    | Admitted conn ->
        if ch.n_live = Array.length ch.live then
          ch.live <- Array.append ch.live (Array.make ch.n_live 0);
        ch.live.(ch.n_live) <- conn;
        ch.n_live <- ch.n_live + 1
    | Rejected _ | Released -> ());
    (Admit (l, c), out)
  end
  else begin
    let i = Random.State.int ch.st ch.n_live in
    let conn = ch.live.(i) in
    ch.live.(i) <- ch.live.(ch.n_live - 1);
    ch.n_live <- ch.n_live - 1;
    Cac.Engine.release ch.engine ~conn;
    (Release conn, Released)
  end

(* A stretch of the stream: ops, expected answers, and the live count
   after each op. *)
type stream = { ops : op array; expect : outcome array; live_after : int array }

let churn_stream ch n =
  let ops = Array.make n (Release 0) and expect = Array.make n Released in
  let live_after = Array.make n 0 in
  for i = 0 to n - 1 do
    let op, out = next_op ch in
    ops.(i) <- op;
    expect.(i) <- out;
    live_after.(i) <- ch.n_live
  done;
  { ops; expect; live_after }

let admit_requests =
  Array.map
    (fun l -> Array.map (fun c -> admit_request l.id c) churn_classes)
    links

let op_request = function
  | Admit (l, c) -> admit_requests.(l).(c)
  | Release conn -> release_request conn

(* {2 Answer checks} *)

let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let num = function
  | Some (Obs.Json.Float f) -> Some (Some f)
  | Some (Obs.Json.Int i) -> Some (Some (float_of_int i))
  | Some Obs.Json.Null -> Some None
  | _ -> None

let json_bool doc k v = Obs.Json.member k doc = Some (Obs.Json.Bool v)

(* A /v1/decide answer against the reference verdict: [admissible],
   [degraded] and [reason] equal; [log10_bop] and [required_bw] within
   1e-9 relative. *)
let verdict_ok (v : Cac.Engine.verdict) (r : Client.response) =
  r.Client.status = 200
  &&
  match Obs.Json.of_string r.Client.body with
  | None -> false
  | Some doc ->
      let reason =
        match Obs.Json.member "reason" doc with
        | Some (Obs.Json.String s) -> Some s
        | _ -> None
      in
      let float_ok field expected =
        match (num (Obs.Json.member field doc), expected) with
        | Some None, None -> true
        | Some (Some a), Some b -> rel_close a b
        | _ -> false
      in
      json_bool doc "admissible" v.Cac.Engine.admissible
      && json_bool doc "degraded" v.Cac.Engine.degraded
      && Option.equal String.equal reason (Option.map reason_name v.Cac.Engine.reason)
      && float_ok "log10_bop" v.Cac.Engine.log10_bop
      && float_ok "required_bw" v.Cac.Engine.required_bw

(* The decide checker: each key's first answer is checked against the
   reference verdict; later answers must repeat an accepted body byte
   for byte (decisions do not mutate state) or pass the same check. *)
let decide_checker reference =
  let verdicts =
    Array.map
      (fun (l, c) -> Cac.Engine.evaluate reference ~link:links.(l).id ~cls:(cls decide_classes.(c)))
      decide_keys
  in
  let accepted = Array.make (Array.length decide_keys) None in
  fun key (r : Client.response) ->
    match accepted.(key) with
    | Some body when r.Client.status = 200 && String.equal body r.Client.body -> true
    | _ ->
        let ok = verdict_ok verdicts.(key) r in
        if ok then accepted.(key) <- Some r.Client.body;
        ok

let expected_body = function
  | Admitted conn ->
      Obs.Json.Obj [ ("admitted", Obs.Json.Bool true); ("conn", Obs.Json.Int conn) ]
  | Rejected reason ->
      Obs.Json.Obj [ ("admitted", Obs.Json.Bool false); ("reason", Obs.Json.String reason) ]
  | Released -> Obs.Json.Obj [ ("released", Obs.Json.Bool true) ]

(* An admit/release answer against the reference outcome. *)
let outcome_ok expected (r : Client.response) =
  r.Client.status = 200
  && (String.equal r.Client.body (Obs.Json.to_string (expected_body expected))
     ||
     match Obs.Json.of_string r.Client.body with
     | None -> false
     | Some doc -> (
         let m k = Obs.Json.member k doc in
         match expected with
         | Admitted conn -> json_bool doc "admitted" true && m "conn" = Some (Obs.Json.Int conn)
         | Rejected reason ->
             json_bool doc "admitted" false && m "reason" = Some (Obs.Json.String reason)
         | Released -> json_bool doc "released" true))

(* A /healthz or verify-state report's [connections] against the
   generator's live count. *)
let connections_ok ~expected doc = Obs.Json.member "connections" doc = Some (Obs.Json.Int expected)
