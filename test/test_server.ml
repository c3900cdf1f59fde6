open Helpers
open Srv

(* {2 Plumbing}

   Parser tests drive [Http.read_request] through a Unix-domain
   socketpair — real fds, no network.  [Pool.serve_connection] closes
   its own end, so double-closes here are absorbed. *)

let check_str msg expected actual = Alcotest.(check string) msg expected actual

let with_socketpair f =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close client with Unix.Unix_error _ -> ());
      (try Unix.close server with Unix.Unix_error _ -> ()))
    (fun () -> f client server)

(* Feed [bytes] to the parser and return the result; the client end is
   closed after writing so truncated inputs terminate with EOF. *)
let parse ?limits ?buf_size bytes =
  with_socketpair (fun client server ->
      Io.write_string client bytes;
      Unix.close client;
      Http.read_request ?limits (Io.reader ?buf_size server) (Io.deadline_in 5.0))

let parse_error_status ?limits ?buf_size bytes =
  match parse ?limits ?buf_size bytes with
  | Http.Error { status; _ } -> status
  | Http.Request _ -> Alcotest.failf "parsed %S as a request" bytes
  | Http.Eof -> Alcotest.failf "parsed %S as EOF" bytes

(* Minimal HTTP client: read one response off [reader]. *)
let read_response reader =
  let dl = Io.deadline_in 10.0 in
  let status =
    match Io.read_line reader ~max:8192 dl with
    | None -> Alcotest.fail "eof before status line"
    | Some line -> (
        match String.split_on_char ' ' line with
        | _ :: code :: _ -> int_of_string code
        | _ -> Alcotest.failf "bad status line %S" line)
  in
  let rec headers acc =
    match Io.read_line reader ~max:8192 dl with
    | None -> Alcotest.fail "eof in headers"
    | Some "" -> List.rev acc
    | Some line -> (
        match String.index_opt line ':' with
        | None -> Alcotest.failf "bad header line %S" line
        | Some i ->
            headers
              (( String.lowercase_ascii (String.sub line 0 i),
                 String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)) )
              :: acc))
  in
  let hs = headers [] in
  let len =
    match List.assoc_opt "content-length" hs with
    | Some v -> int_of_string v
    | None -> 0
  in
  (status, hs, Io.read_exact reader len dl)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spin ?(tries = 2000) cond msg =
  let rec go n =
    if cond () then ()
    else if n <= 0 then Alcotest.fail msg
    else begin
      Unix.sleepf 0.005;
      go (n - 1)
    end
  in
  go tries

(* {2 Parser goldens} *)

let test_parse_get () =
  match
    parse
      "GET /healthz?q=long%20range&n=3 HTTP/1.1\r\n\
       Host: cts\r\n\
       X-Trace: on \r\n\
       \r\n"
  with
  | Http.Request req ->
      check_true "method" (Http.meth_equal req.Http.meth Http.GET);
      check_str "path" "/healthz" req.Http.path;
      check_str "raw target kept" "/healthz?q=long%20range&n=3" req.Http.target;
      check_true "query decoded"
        (req.Http.query = [ ("q", "long range"); ("n", "3") ]);
      check_str "header lowercased" "cts"
        (Option.value ~default:"?" (Http.header req "HOST"));
      check_str "header value trimmed" "on"
        (Option.value ~default:"?" (Http.header req "x-trace"));
      check_str "no body" "" req.Http.body;
      check_true "HTTP/1.1 defaults to keep-alive" (Http.keep_alive req)
  | _ -> Alcotest.fail "valid GET did not parse"

let test_parse_post_body () =
  match
    parse "POST /v1/decide HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello"
  with
  | Http.Request req ->
      check_true "method" (Http.meth_equal req.Http.meth Http.POST);
      check_str "body" "hello" req.Http.body
  | _ -> Alcotest.fail "POST with body did not parse"

let test_parse_eof () =
  match parse "" with
  | Http.Eof -> ()
  | _ -> Alcotest.fail "clean close should be Eof"

let test_parse_malformed () =
  check_int "garbage request line" 400 (parse_error_status "GARBAGE\r\n\r\n");
  check_int "unsupported version" 505
    (parse_error_status "GET /x HTTP/2.0\r\n\r\n");
  check_int "bad content-length" 400
    (parse_error_status "GET /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n");
  check_int "negative content-length" 400
    (parse_error_status "GET /x HTTP/1.1\r\ncontent-length: -4\r\n\r\n");
  check_int "chunked rejected" 501
    (parse_error_status
       "POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n")

let test_parse_truncated () =
  check_int "cut mid-headers" 400
    (parse_error_status "GET /x HTTP/1.1\r\nHost: cts");
  check_int "cut mid-body" 400
    (parse_error_status "POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nhi")

let test_parse_oversized () =
  let limits = { Http.max_line = 48; max_headers = 2; max_body = 64 } in
  let long = String.make 100 'a' in
  check_int "request line too long" 414
    (parse_error_status ~limits (Printf.sprintf "GET /%s HTTP/1.1\r\n\r\n" long));
  check_int "header line too long" 431
    (parse_error_status ~limits
       (Printf.sprintf "GET /x HTTP/1.1\r\nx: %s\r\n\r\n" long));
  check_int "too many headers" 431
    (parse_error_status ~limits
       "GET /x HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n");
  check_int "body over cap refused before reading it" 413
    (parse_error_status ~limits
       "POST /x HTTP/1.1\r\ncontent-length: 65\r\n\r\n")

let test_parse_timeout () =
  with_socketpair (fun client server ->
      Io.write_string client "GET /slow HTTP/1.1\r\nHost:";
      (* client neither finishes nor closes: the deadline must fire *)
      match Http.read_request (Io.reader server) (Io.deadline_in 0.2) with
      | Http.Error { status = 408; _ } -> ()
      | _ -> Alcotest.fail "trickling peer should time out as 408")

let test_keep_alive_semantics () =
  let ka bytes =
    match parse bytes with
    | Http.Request req -> Http.keep_alive req
    | _ -> Alcotest.failf "unparseable %S" bytes
  in
  check_true "1.0 defaults to close" (not (ka "GET /x HTTP/1.0\r\n\r\n"));
  check_true "1.0 opts into keep-alive"
    (ka "GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
  check_true "1.1 opts out with close"
    (not (ka "GET /x HTTP/1.1\r\nconnection: close\r\n\r\n"))

(* {2 Line reads: buffered fast path vs. the byte loop}

   [Io.read_line] slices a line straight out of the reader's buffer
   when its terminator is already there and falls back to a byte loop
   otherwise.  A small [buf_size] forces lines across refills (the
   loop); the default buffer takes the fast path. *)

let gen_api_request =
  let open QCheck2.Gen in
  let* kind = oneofl [ `Decide; `Admit; `Release ] in
  let* link = oneofl [ "oc3"; "access"; "edge-7" ] in
  let* cls = oneofl Cac.Source_class.names in
  let* conn = int_range 0 100_000 in
  let* crlf = bool in
  let* capitalised = bool in
  let* traced = bool in
  let* close = bool in
  let path, body =
    match kind with
    | `Decide -> ("/v1/decide", Printf.sprintf {|{"link": "%s", "class": "%s"}|} link cls)
    | `Admit -> ("/v1/admit", Printf.sprintf {|{"link": "%s", "class": "%s"}|} link cls)
    | `Release -> ("/v1/release", Printf.sprintf {|{"conn": %d}|} conn)
  in
  let eol = if crlf then "\r\n" else "\n" in
  let name n = if capitalised then String.capitalize_ascii n else n in
  let headers =
    [
      ("host", "cts");
      ("content-type", "application/json");
      ("content-length", string_of_int (String.length body));
    ]
    @ (if traced then
         [ ("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01") ]
       else [])
    @ if close then [ ("connection", "close") ] else []
  in
  return
    (Printf.sprintf "POST %s HTTP/1.1%s%s%s%s" path eol
       (String.concat "" (List.map (fun (k, v) -> name k ^ ": " ^ v ^ eol) headers))
       eol body)

(* Chunk sizes for the writer: one byte at a time, or arbitrary runs. *)
let gen_chunks =
  QCheck2.Gen.(
    oneof [ return [ 1 ]; list_size (int_range 1 8) (int_range 1 40) ])

(* Write [bytes] in chunks (sizes cycled) from another domain while
   this one parses it through a reader of [buf_size] bytes. *)
let parse_chunked ~chunks ~buf_size bytes =
  with_socketpair (fun client server ->
      let writer =
        Domain.spawn (fun () ->
            let n = String.length bytes in
            let rec go pos sizes =
              if pos < n then begin
                let size, rest =
                  match sizes with [] -> (1, chunks) | k :: rest -> (k, rest)
                in
                let k = Stdlib.min size (n - pos) in
                Io.write_string client (String.sub bytes pos k);
                go (pos + k) rest
              end
            in
            go 0 chunks)
      in
      let result =
        Http.read_request (Io.reader ~buf_size server) (Io.deadline_in 5.0)
      in
      Domain.join writer;
      result)

let prop_chunked_parse =
  qcheck ~count:120 "parser: chunked requests parse like unsplit bytes"
    QCheck2.Gen.(
      triple gen_api_request gen_chunks (oneofl [ 1; 2; 3; 7; 16; 64; 8192 ]))
    (fun (bytes, chunks, buf_size) ->
      match (parse bytes, parse_chunked ~chunks ~buf_size bytes) with
      | Http.Request whole, Http.Request split -> whole = split
      | _ -> false)

let test_line_limit_edges () =
  let limits = { Http.max_line = 48; max_headers = 4; max_body = 64 } in
  (* a request line of exactly [n] bytes before its terminator *)
  let request_line n = "GET /" ^ String.make (n - 14) 'a' ^ " HTTP/1.1" in
  let header_line n = "x: " ^ String.make (n - 3) 'b' in
  List.iter
    (fun buf_size ->
      let path = if buf_size = 1 then "byte loop" else "fast path" in
      let parses what bytes =
        match parse ~limits ~buf_size bytes with
        | Http.Request _ -> ()
        | _ -> Alcotest.failf "%s (%s): %S did not parse" what path bytes
      in
      let fails what status bytes =
        check_int (Printf.sprintf "%s (%s)" what path) status
          (parse_error_status ~limits ~buf_size bytes)
      in
      check_int "request line length" 48 (String.length (request_line 48));
      parses "request line of max_line bytes" (request_line 48 ^ "\n\n");
      fails "request line of max_line + 1 bytes" 414 (request_line 49 ^ "\n\n");
      parses "CRLF request line, CR included, of max_line bytes"
        (request_line 47 ^ "\r\n\r\n");
      fails "CRLF request line of max_line + 1 bytes" 414
        (request_line 48 ^ "\r\n\r\n");
      parses "header line of max_line bytes"
        ("GET /x HTTP/1.1\n" ^ header_line 48 ^ "\n\n");
      fails "header line of max_line + 1 bytes" 431
        ("GET /x HTTP/1.1\n" ^ header_line 49 ^ "\n\n");
      fails "CRLF header line of max_line + 1 bytes" 431
        ("GET /x HTTP/1.1\r\n" ^ header_line 48 ^ "\r\n\r\n"))
    [ 8192; 1 ]

(* {2 Router} *)

let make_router () =
  Router.create
    [
      Router.route Http.GET "/ping" (fun _ -> Http.text "pong");
      Router.route Http.POST "/echo" (fun req -> Http.text req.Http.body);
    ]

let req_for meth path =
  {
    Http.meth;
    target = path;
    path;
    query = [];
    version = Http.Http_1_1;
    headers = [];
    body = "";
  }

let test_router_dispatch () =
  let r = make_router () in
  let label, resp = Router.dispatch r (req_for Http.GET "/ping") in
  check_str "matched label" "/ping" label;
  check_int "matched status" 200 (Http.status resp);
  let label, resp = Router.dispatch r (req_for Http.GET "/nope") in
  check_str "404s share one label" Router.unmatched_label label;
  check_int "unknown path" 404 (Http.status resp);
  let label, resp = Router.dispatch r (req_for Http.DELETE "/ping") in
  check_str "405 keeps the path label" "/ping" label;
  check_int "wrong method" 405 (Http.status resp);
  check_true "allow header lists the supported method"
    (contains_substring
       (Http.to_string ~keep_alive:false resp)
       "allow: GET")

(* The exact bytes [Http.write] puts on the wire. *)
let test_serialize_golden () =
  let resp = Http.add_header (Http.text ~status:404 "nope") ("traceparent", "00-ab-cd-01") in
  check_str "keep-alive response"
    "HTTP/1.1 404 Not Found\r\n\
     traceparent: 00-ab-cd-01\r\n\
     content-type: text/plain; charset=utf-8\r\n\
     content-length: 4\r\n\
     connection: keep-alive\r\n\
     \r\n\
     nope"
    (Http.to_string ~keep_alive:true resp);
  check_str "closing response with an unknown status"
    "HTTP/1.1 299 Unknown\r\ncontent-length: 0\r\nconnection: close\r\n\r\n"
    (Http.to_string ~keep_alive:false (Http.response ~status:299 ""))

let test_router_rejects_duplicates () =
  match
    Router.create
      [
        Router.route Http.GET "/a" (fun _ -> Http.text "1");
        Router.route Http.GET "/a" (fun _ -> Http.text "2");
      ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate routes accepted"

let test_pool_config_validation () =
  let bad config =
    match Pool.create ~config (make_router ()) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "invalid pool config accepted"
  in
  bad { Pool.default_config with domains = 0 };
  bad { Pool.default_config with queue_capacity = 0 };
  bad { Pool.default_config with read_timeout_s = Some 0.0 }

(* {2 Socketpair round-trips through the worker body} *)

let test_round_trip_keep_alive () =
  let config = { Pool.default_config with domains = 1 } in
  let pool = Pool.create ~config (make_router ()) in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          Io.write_string client "GET /ping HTTP/1.1\r\n\r\n";
          let st, hdrs, body = read_response reader in
          check_int "first response" 200 st;
          check_str "body" "pong" body;
          check_str "keep-alive advertised" "keep-alive"
            (Option.value ~default:"?" (List.assoc_opt "connection" hdrs));
          (* second request on the same connection *)
          Io.write_string client
            "POST /echo HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
          let st, _, body = read_response reader in
          check_int "reused connection" 200 st;
          check_str "echoed body" "hello" body;
          (* 404 is a routed answer, not a connection error *)
          Io.write_string client "GET /missing HTTP/1.1\r\n\r\n";
          let st, _, _ = read_response reader in
          check_int "404 keeps the session" 404 st;
          (* connection: close ends the session *)
          Io.write_string client
            "GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n";
          let st, hdrs, _ = read_response reader in
          check_int "final response" 200 st;
          check_str "close advertised" "close"
            (Option.value ~default:"?" (List.assoc_opt "connection" hdrs));
          match Io.read_line reader ~max:64 (Io.deadline_in 5.0) with
          | None -> ()
          | Some _ -> Alcotest.fail "connection survived connection: close"))

let test_connection_answers_parse_error () =
  let pool = Pool.create ~config:{ Pool.default_config with domains = 1 }
      (make_router ())
  in
  let errors_before = Obs.Registry.counter_value "srv.http.parse_errors" in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          Io.write_string client "NOT-HTTP\r\n\r\n";
          let st, _, body = read_response reader in
          check_int "malformed input answered" 400 st;
          check_true "json error body" (contains_substring body "error");
          (match Io.read_line reader ~max:64 (Io.deadline_in 5.0) with
          | None -> ()
          | Some _ -> Alcotest.fail "connection survived a parse error");
          check_true "parse_errors ticked"
            (Obs.Registry.counter_value "srv.http.parse_errors" > errors_before)))

let test_handler_exception_contained () =
  let router =
    Router.create
      [
        Router.route Http.GET "/boom" (fun _ -> failwith "handler bug");
        Router.route Http.GET "/ok" (fun _ -> Http.text "fine");
      ]
  in
  let pool = Pool.create ~config:{ Pool.default_config with domains = 1 } router in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          Io.write_string client "GET /boom HTTP/1.1\r\n\r\n";
          let st, _, _ = read_response reader in
          check_int "exception degraded to 500" 500 st;
          (* the worker survived: same connection still serves *)
          Io.write_string client
            "GET /ok HTTP/1.1\r\nconnection: close\r\n\r\n";
          let st, _, body = read_response reader in
          check_int "worker survived the exception" 200 st;
          check_str "subsequent handler ran" "fine" body))

(* {2 Overload: full queue sheds with 503} *)

let test_overload_sheds_503 () =
  let m = Mutex.create () in
  let cv = Condition.create () in
  let started = ref 0 in
  let release = ref false in
  let block_handler _req =
    Mutex.protect m (fun () ->
        incr started;
        Condition.broadcast cv;
        while not !release do
          Condition.wait cv m
        done);
    Http.text "unblocked"
  in
  let router =
    Router.create [ Router.route Http.GET "/block" block_handler ]
  in
  let config =
    {
      Pool.default_config with
      domains = 1;
      queue_capacity = 1;
      max_conn_requests = 1;
    }
  in
  let pool = Pool.create ~config router in
  let listen_fd = Pool.listen ~host:"127.0.0.1" ~port:0 () in
  let port = Pool.bound_port listen_fd in
  let server = Domain.spawn (fun () -> Pool.serve pool listen_fd) in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect m (fun () ->
          release := true;
          Condition.broadcast cv);
      Pool.stop pool;
      ignore (Domain.join server);
      close_quietly listen_fd)
    (fun () ->
      spin (fun () -> Pool.accepting pool) "accept loop never came up";
      let shed_before = Obs.Registry.counter_value "srv.http.shed" in
      (* c1 occupies the single worker... *)
      let c1 = connect port in
      Io.write_string c1 "GET /block HTTP/1.1\r\n\r\n";
      spin
        (fun () -> Mutex.protect m (fun () -> !started) >= 1)
        "worker never picked up the blocking request";
      (* ...c2 fills the one queue slot... *)
      let c2 = connect port in
      Io.write_string c2 "GET /block HTTP/1.1\r\n\r\n";
      spin
        (fun () -> Pool.queue_length pool = 1)
        "second connection never queued";
      (* ...so c3 must be shed straight from the accept loop. *)
      let c3 = connect port in
      Fun.protect
        ~finally:(fun () -> List.iter close_quietly [ c1; c2; c3 ])
        (fun () ->
          let st, hdrs, body = read_response (Io.reader c3) in
          check_int "overflow sheds 503, not a hang" 503 st;
          check_str "retry-after set" "1"
            (Option.value ~default:"?" (List.assoc_opt "retry-after" hdrs));
          check_true "overload body says so"
            (contains_substring body "overloaded");
          check_true "shed counter ticked"
            (Obs.Registry.counter_value "srv.http.shed" > shed_before);
          (* unblock: both accepted requests must still be answered *)
          Mutex.protect m (fun () ->
              release := true;
              Condition.broadcast cv);
          let st, _, _ = read_response (Io.reader c1) in
          check_int "blocked request answered" 200 st;
          let st, _, _ = read_response (Io.reader c2) in
          check_int "queued request answered after drain" 200 st))

(* {2 Trace correlation and introspection} *)

let with_api ?(links = [ ("oc3", 16140.0, 20.0) ]) f =
  let engine = Cac.Engine.create () in
  List.iter
    (fun (id, capacity, buffer_msec) ->
      let (_ : Cac.Link.t) =
        Cac.Engine.add_link_msec engine ~id ~capacity ~buffer_msec
          ~target_clr:1e-6
      in
      ())
    links;
  f (Cac_api.create engine)

(* Run one connection's worth of raw bytes through the worker body and
   hand each response back through [read_response]. *)
let serve_bytes router ~requests =
  let pool = Pool.create ~config:{ Pool.default_config with domains = 1 } router in
  with_socketpair (fun client server ->
      let worker = Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server) in
      Fun.protect
        ~finally:(fun () -> ignore (Domain.join worker))
        (fun () ->
          let reader = Io.reader client in
          List.map
            (fun bytes ->
              Io.write_string client bytes;
              read_response reader)
            requests))

let response_body resp =
  let s = Http.to_string ~keep_alive:false resp in
  let rec scan i =
    if i + 4 > String.length s then Alcotest.fail "response without header end"
    else if String.sub s i 4 = "\r\n\r\n" then
      String.sub s (i + 4) (String.length s - i - 4)
    else scan (i + 1)
  in
  scan 0

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

let test_traceparent_round_trip () =
  let supplied = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01" in
  match
    serve_bytes (make_router ())
      ~requests:
        [
          Printf.sprintf "GET /ping HTTP/1.1\r\ntraceparent: %s\r\n\r\n"
            supplied;
          "GET /ping HTTP/1.1\r\n\
           traceparent: garbage\r\n\
           connection: close\r\n\
           \r\n";
        ]
  with
  | [ (st1, hdrs1, _); (st2, hdrs2, _) ] -> (
      check_int "traced request served" 200 st1;
      check_str "supplied context echoed verbatim" supplied
        (Option.value ~default:"?" (List.assoc_opt "traceparent" hdrs1));
      check_int "malformed header still served" 200 st2;
      match List.assoc_opt "traceparent" hdrs2 with
      | None -> Alcotest.fail "no traceparent on the response"
      | Some tp ->
          check_true "generated replacement is well-formed"
            (Obs.Trace.parse_traceparent tp <> None);
          check_true "generated trace differs from the malformed input"
            (not (contains_substring tp "garbage")))
  | _ -> Alcotest.fail "expected two responses"

(* The acceptance criterion for trace correlation: one decide request
   against the real API router yields span events (request root + api
   handler) all stamped with the peer's trace id. *)
let test_trace_correlation_jsonl () =
  let tid = "4bf92f3577b34da6a3ce929d0e0e4736" in
  let path = Filename.temp_file "srv_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Obs.Span.set_trace_sink (Obs.Sink.Jsonl oc);
          Fun.protect
            ~finally:(fun () -> Obs.Span.set_trace_sink Obs.Sink.Null)
            (fun () ->
              with_api (fun api ->
                  let body = {|{"link": "oc3", "class": "dar1"}|} in
                  match
                    serve_bytes (Cac_api.router api)
                      ~requests:
                        [
                          Printf.sprintf
                            "POST /v1/decide HTTP/1.1\r\n\
                             traceparent: 00-%s-00f067aa0ba902b7-01\r\n\
                             content-length: %d\r\n\
                             connection: close\r\n\
                             \r\n\
                             %s"
                            tid (String.length body) body;
                        ]
                  with
                  | [ (st, _, resp) ] ->
                      check_int "decide succeeded" 200 st;
                      check_true "verdict answered"
                        (contains_substring resp "admissible")
                  | _ -> Alcotest.fail "expected one response")));
      let events = List.filter_map Obs.Json.of_string (read_lines path) in
      let span_traced name =
        List.exists
          (fun j ->
            Obs.Json.member "name" j = Some (String name)
            && Obs.Json.member "trace" j = Some (String tid))
          events
      in
      check_true "request root span carries the peer's trace id"
        (span_traced "srv.http.request");
      check_true "api handler span carries the same trace id"
        (span_traced "cac.api.decide"))

let test_access_log () =
  let path = Filename.temp_file "srv_access" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let prev = Obs.Sink.human_sink () in
      Obs.Sink.set_human (Obs.Sink.Text oc);
      Fun.protect
        ~finally:(fun () ->
          Obs.Sink.set_human prev;
          close_out_noerr oc)
        (fun () ->
          let config =
            { Pool.default_config with domains = 1; access_log = true }
          in
          let pool = Pool.create ~config (make_router ()) in
          with_socketpair (fun client server ->
              let worker =
                Domain.spawn (fun () -> Pool.serve_connection pool ~queue_wait_us:0.0 server)
              in
              Fun.protect
                ~finally:(fun () -> ignore (Domain.join worker))
                (fun () ->
                  Io.write_string client
                    "GET /ping HTTP/1.1\r\nconnection: close\r\n\r\n";
                  let st, _, _ = read_response (Io.reader client) in
                  check_int "request served" 200 st)));
      match List.filter_map Obs.Json.of_string (read_lines path) with
      | [ line ] ->
          let f name = Obs.Json.member name line in
          check_true "the line's fields, in order"
            (match line with
            | Obs.Json.Obj fields ->
                List.map fst fields
                = [ "ts"; "kind"; "method"; "path"; "status"; "us";
                    "queue_wait_us"; "gc_pause_us"; "trace" ]
            | _ -> false);
          check_true "kind tagged" (f "kind" = Some (String "access"));
          check_true "method logged" (f "method" = Some (String "GET"));
          check_true "path logged" (f "path" = Some (String "/ping"));
          check_true "status logged" (f "status" = Some (Int 200));
          check_true "latency logged"
            (match f "us" with Some (Float us) -> us >= 0.0 | _ -> false);
          check_true "trace id logged"
            (match f "trace" with
            | Some (String tid) -> String.length tid = 32
            | _ -> false);
          (* JSON integral floats parse back as Int — accept both. *)
          let non_negative = function
            | Some (Obs.Json.Float us) -> us >= 0.0
            | Some (Obs.Json.Int us) -> us >= 0
            | _ -> false
          in
          check_true "queue wait logged" (non_negative (f "queue_wait_us"));
          check_true "gc pause logged" (non_negative (f "gc_pause_us"))
      | lines ->
          Alcotest.failf "expected one access line, got %d" (List.length lines))

let requests_series () =
  List.length
    (List.filter
       (fun ((name, _), _) -> String.equal name "srv.http.requests")
       (Obs.Registry.snapshot ()).Obs.Registry.counters)

(* Any token is accepted as a method, so [srv.http.requests]'
   [method] label buckets the non-standard ones: 500 distinct made-up
   methods add at most one series.  The access log keeps each raw
   method. *)
let test_method_label_bounded () =
  let path = Filename.temp_file "srv_methods" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let before = requests_series () in
      let oc = open_out path in
      let prev = Obs.Sink.human_sink () in
      Obs.Sink.set_human (Obs.Sink.Text oc);
      Fun.protect
        ~finally:(fun () ->
          Obs.Sink.set_human prev;
          close_out_noerr oc)
        (fun () ->
          let config =
            { Pool.default_config with domains = 1; access_log = true }
          in
          let pool = Pool.create ~config (make_router ()) in
          with_socketpair (fun client server ->
              let worker =
                Domain.spawn (fun () ->
                    Pool.serve_connection pool ~queue_wait_us:0.0 server)
              in
              Fun.protect
                ~finally:(fun () -> ignore (Domain.join worker))
                (fun () ->
                  let reader = Io.reader client in
                  for i = 1 to 500 do
                    Io.write_string client
                      (Printf.sprintf "MADEUP%d /ping HTTP/1.1\r\n\r\n" i);
                    let st, _, _ = read_response reader in
                    check_int "made-up method on a known path" 405 st
                  done;
                  Unix.shutdown client Unix.SHUTDOWN_SEND)));
      let grown = requests_series () - before in
      if grown > 1 then
        Alcotest.failf "500 made-up methods added %d request series" grown;
      let methods =
        List.filter_map
          (fun line -> Obs.Json.member "method" line)
          (List.filter_map Obs.Json.of_string (read_lines path))
      in
      check_int "one access line per request" 500 (List.length methods);
      check_true "access log keeps the raw method"
        (List.mem (Obs.Json.String "MADEUP417") methods))

(* The decide path's allocation budget on the serving domain, with the
   access log on and a [Null] human sink (the daemon under --quiet):
   the line must not be built for a sink that drops it.  The parent of
   this guard allocated about 2,800 minor words per request here. *)
let test_decide_allocation_budget () =
  let requests = 2_000 in
  let prev = Obs.Sink.human_sink () in
  Obs.Sink.set_human Obs.Sink.Null;
  Fun.protect
    ~finally:(fun () -> Obs.Sink.set_human prev)
    (fun () ->
      with_api (fun api ->
          let cls = Cac.Source_class.of_name_exn "dar1" in
          (* warm the decision cache off the measured domain *)
          ignore
            (Cac_api.with_engine api (fun e ->
                 Cac.Engine.evaluate e ~link:"oc3" ~cls));
          let config =
            { Pool.default_config with domains = 1; access_log = true }
          in
          let pool = Pool.create ~config (Cac_api.router api) in
          let body = {|{"link": "oc3", "class": "dar1"}|} in
          let request =
            Printf.sprintf
              "POST /v1/decide HTTP/1.1\r\n\
               content-type: application/json\r\n\
               content-length: %d\r\n\
               \r\n\
               %s"
              (String.length body) body
          in
          let words =
            with_socketpair (fun client server ->
                let worker =
                  Domain.spawn (fun () ->
                      let w0 = Gc.minor_words () in
                      Pool.serve_connection pool ~queue_wait_us:0.0 server;
                      Gc.minor_words () -. w0)
                in
                let reader = Io.reader client in
                for _ = 1 to requests do
                  Io.write_string client request;
                  let st, _, _ = read_response reader in
                  check_int "decide served" 200 st
                done;
                Unix.shutdown client Unix.SHUTDOWN_SEND;
                Domain.join worker)
          in
          let per_request = words /. float_of_int requests in
          if not (per_request < 2_200.0) then
            Alcotest.failf "%.0f minor words per decide (budget 2,200)"
              per_request))

(* The per-request GC attribution loop: a handler that provokes a full
   major and then outlives the consumer's poll interval must see its
   own pause land in [srv.http.gc_pause.us{route}].  Attribution lags
   by at most one poll interval, hence the in-handler sleep and the
   retry loop for the nonzero-sum half. *)
let test_gc_attribution () =
  let ev = Obs.Events.start ~poll_interval_s:0.001 () in
  Fun.protect
    ~finally:(fun () -> Obs.Events.stop ev)
    (fun () ->
      let router =
        Router.create
          [
            Router.route Http.GET "/gcburn" (fun _ ->
                let junk = ref [] in
                for i = 1 to 200_000 do
                  junk := float_of_int i :: !junk
                done;
                ignore (Sys.opaque_identity !junk);
                junk := [];
                Gc.full_major ();
                Unix.sleepf 0.01;
                Http.text "burned");
          ]
      in
      let config = { Pool.default_config with domains = 1 } in
      let pool = Pool.create ~config router in
      let labels = Obs.Labels.make [ ("route", "/gcburn") ] in
      let snap () =
        Obs.Registry.histogram_snapshot ~labels "srv.http.gc_pause.us"
      in
      let before =
        match snap () with Some h -> h.Obs.Registry.count | None -> 0
      in
      let fire () =
        with_socketpair (fun client server ->
            let worker =
              Domain.spawn (fun () ->
                  Pool.serve_connection pool ~queue_wait_us:0.0 server)
            in
            Fun.protect
              ~finally:(fun () -> ignore (Domain.join worker))
              (fun () ->
                Io.write_string client
                  "GET /gcburn HTTP/1.1\r\nconnection: close\r\n\r\n";
                let st, _, _ = read_response (Io.reader client) in
                check_int "request served" 200 st))
      in
      fire ();
      (match snap () with
      | Some h ->
          check_true "gc_pause observed for every request with events on"
            (h.Obs.Registry.count > before)
      | None -> Alcotest.fail "srv.http.gc_pause.us never created");
      let rec until_nonzero n =
        if n <= 0 then
          Alcotest.fail "attributed gc pause time stayed zero across 20 requests"
        else
          match snap () with
          | Some h when h.Obs.Registry.sum > 0.0 -> ()
          | _ ->
              fire ();
              until_nonzero (n - 1)
      in
      until_nonzero 20)

let test_debug_vars () =
  with_api @@ fun api ->
  let api =
    Cac_api.add_debug_provider api ~name:"test_section" (fun () ->
        Obs.Json.Obj [ ("answer", Obs.Json.Int 42) ])
  in
  let api =
    Cac_api.add_debug_provider api ~name:"test_broken" (fun () ->
        failwith "provider bug")
  in
  let router = Cac_api.router api in
  let _, resp = Router.dispatch router (req_for Http.GET "/debug/vars") in
  check_int "debug vars answers" 200 (Http.status resp);
  match Obs.Json.of_string (response_body resp) with
  | None -> Alcotest.fail "unparseable /debug/vars body"
  | Some doc ->
      let f name = Obs.Json.member name doc in
      check_true "uptime present"
        (match f "uptime_s" with Some (Float u) -> u >= 0.0 | _ -> false);
      check_true "clock source named"
        (match f "clock_source" with
        | Some (String s) -> String.length s > 0
        | _ -> false);
      (match f "gc" with
      | Some gc ->
          check_true "gc stats carry collection counts"
            (match Obs.Json.member "minor_collections" gc with
            | Some (Int n) -> n >= 0
            | _ -> false)
      | None -> Alcotest.fail "no gc section");
      check_true "collector status reported"
        (match f "runtime_collector" with
        | Some (String s) -> List.mem s [ "never"; "live"; "stale" ]
        | _ -> false);
      check_true "registered provider rendered"
        (match f "test_section" with
        | Some s -> Obs.Json.member "answer" s = Some (Obs.Json.Int 42)
        | None -> false);
      check_true "throwing provider degrades, not 500s"
        (f "test_broken" = Some (String "<provider error>"))

let test_healthz_liveness_fields () =
  with_api @@ fun api ->
  (* A snapshot has certainly been taken by now (metrics tests above),
     so the age must be a number, not null. *)
  ignore (Obs.Registry.snapshot ());
  let _, resp = Router.dispatch (Cac_api.router api) (req_for Http.GET "/healthz") in
  check_int "healthz answers" 200 (Http.status resp);
  match Obs.Json.of_string (response_body resp) with
  | None -> Alcotest.fail "unparseable /healthz body"
  | Some doc ->
      let f name = Obs.Json.member name doc in
      check_true "still reports ok" (f "status" = Some (String "ok"));
      check_true "snapshot age reported"
        (match f "snapshot_age_s" with Some (Float a) -> a >= 0.0 | _ -> false);
      check_true "collector liveness reported"
        (match f "runtime_collector" with
        | Some (String s) -> List.mem s [ "never"; "live"; "stale" ]
        | _ -> false);
      check_true "collector age key present" (f "runtime_sample_age_s" <> None)

let test_heatmap_endpoints () =
  with_api ~links:[ ("oc3", 16140.0, 20.0); ("oc12", 64560.0, 120.0) ]
  @@ fun api ->
  let router = Cac_api.router api in
  let decide link =
    let req =
      {
        (req_for Http.POST "/v1/decide") with
        Http.body = Printf.sprintf {|{"link": %S, "class": "dar1"}|} link;
      }
    in
    let _, resp = Router.dispatch router req in
    check_int (link ^ " decided") 200 (Http.status resp)
  in
  decide "oc3";
  decide "oc12";
  let _, resp = Router.dispatch router (req_for Http.GET "/heatmap") in
  check_int "heatmap answers" 200 (Http.status resp);
  let html = response_body resp in
  check_true "self-contained html" (contains_substring html "<!DOCTYPE html>");
  check_true "renders the m* metric" (contains_substring html "cts.m_star");
  let _, resp = Router.dispatch router (req_for Http.GET "/heatmap.csv") in
  check_int "csv answers" 200 (Http.status resp);
  let csv = response_body resp in
  check_true "csv header"
    (contains_substring csv "buffer_cells,bin_lo,bin_hi,count");
  (* two links with different total buffers → at least two distinct rows *)
  let labels =
    List.fold_left
      (fun acc line ->
        match String.index_opt line ',' with
        | Some i ->
            let label = String.sub line 0 i in
            if label = "buffer_cells" || List.mem label acc then acc
            else label :: acc
        | None -> acc)
      []
      (String.split_on_char '\n' csv)
  in
  check_true "both buffer sizes render as rows" (List.length labels >= 2)

(* {2 Loopback soak: the acceptance criterion}

   10k sequential decides over one keep-alive connection against the
   real daemon surface (Cac_api router + Pool over TCP), then a
   /metrics scrape that must carry the per-route telemetry. *)

(* Serve the CAC API (one OC-3 link) from a two-domain pool on an
   ephemeral loopback port; [f] gets a connected client socket and a
   decide request for it.  The pool is stopped and joined afterwards. *)
let with_cac_daemon f =
  let engine = Cac.Engine.create () in
  let (_ : Cac.Link.t) =
    Cac.Engine.add_link_msec engine ~id:"oc3" ~capacity:16140.0
      ~buffer_msec:20.0 ~target_clr:1e-6
  in
  let api = Cac_api.create engine in
  let config = { Pool.default_config with domains = 2; queue_capacity = 64 } in
  let pool = Pool.create ~config (Cac_api.router api) in
  let listen_fd = Pool.listen ~host:"127.0.0.1" ~port:0 () in
  let port = Pool.bound_port listen_fd in
  let server = Domain.spawn (fun () -> Pool.serve pool listen_fd) in
  Fun.protect
    ~finally:(fun () ->
      Pool.stop pool;
      ignore (Domain.join server);
      close_quietly listen_fd)
    (fun () ->
      spin (fun () -> Pool.accepting pool) "accept loop never came up";
      let fd = connect port in
      Fun.protect
        ~finally:(fun () -> close_quietly fd)
        (fun () ->
          let body = {|{"link": "oc3", "class": "dar1"}|} in
          let request =
            Printf.sprintf
              "POST /v1/decide HTTP/1.1\r\n\
               content-type: application/json\r\n\
               content-length: %d\r\n\
               \r\n\
               %s"
              (String.length body) body
          in
          f fd request))

let test_pipelined_pairs_no_stall () =
  with_cac_daemon (fun fd request ->
      let reader = Io.reader fd in
      let pair = request ^ request in
      let started = Obs.Clock.monotonic_ns () in
      for _ = 1 to 20 do
        Io.write_string fd pair;
        for _ = 1 to 2 do
          let st, _, _ = read_response reader in
          check_int "pipelined decide" 200 st
        done
      done;
      let ms = Obs.Clock.ns_to_us (Obs.Clock.elapsed_ns ~since:started) /. 1e3 in
      (* A Nagle-held second response waits out the peer's delayed ACK
         (~40 ms a pair, 800 ms or more in all). *)
      if ms >= 400.0 then
        Alcotest.failf "20 pipelined pairs took %.0f ms (>= 400 ms)" ms)

let test_soak_10k_decides () =
  with_cac_daemon (fun fd request ->
      let reader = Io.reader fd in
      let ok = ref 0 in
      for _ = 1 to 10_000 do
        Io.write_string fd request;
        let st, _, resp = read_response reader in
        if st = 200 && contains_substring resp "admissible" then incr ok
      done;
      check_int "10k keep-alive decides, zero transport errors" 10_000
        !ok;
      (* the scrape endpoint reports what just happened *)
      Io.write_string fd "GET /metrics HTTP/1.1\r\n\r\n";
      let st, hdrs, metrics = read_response reader in
      check_int "metrics scrape" 200 st;
      check_true "prometheus content type"
        (contains_substring
           (Option.value ~default:"?"
              (List.assoc_opt "content-type" hdrs))
           "text/plain");
      check_true "request counter exported"
        (contains_substring metrics "srv_http_requests_total");
      check_true "per-route series exported"
        (contains_substring metrics "route=\"/v1/decide\"");
      check_true "per-route latency histogram exported"
        (contains_substring metrics "srv_http_latency_us");
      check_true "engine counters exported alongside"
        (contains_substring metrics "cac_cache_hits_total"))

let suite =
  [
    case "parser: GET with query and headers" test_parse_get;
    case "parser: POST body via content-length" test_parse_post_body;
    case "parser: clean EOF" test_parse_eof;
    case "parser: malformed inputs" test_parse_malformed;
    case "parser: truncated inputs" test_parse_truncated;
    case "parser: oversized inputs" test_parse_oversized;
    case "parser: trickling peer times out" test_parse_timeout;
    case "parser: keep-alive semantics" test_keep_alive_semantics;
    case "router: dispatch, 404, 405" test_router_dispatch;
    case "router: duplicate routes rejected" test_router_rejects_duplicates;
    case "pool: config validation" test_pool_config_validation;
    case "pool: keep-alive round-trips over a socketpair"
      test_round_trip_keep_alive;
    case "pool: parse errors answered then closed"
      test_connection_answers_parse_error;
    case "pool: handler exceptions contained to a 500"
      test_handler_exception_contained;
    slow_case "pool: overload sheds 503 from the accept loop"
      test_overload_sheds_503;
    (* Alcotest numbers cases by position and reports name them by that
       number, so new cases go after the ones already listed. *)
    prop_chunked_parse;
    case "parser: line limits at max_line and max_line + 1"
      test_line_limit_edges;
    case "http: response serialization golden" test_serialize_golden;
    case "trace: traceparent echoed and generated"
      test_traceparent_round_trip;
    case "trace: one decide, one correlated span tree"
      test_trace_correlation_jsonl;
    case "access log: one JSON line per request" test_access_log;
    case "metrics: made-up methods share one label" test_method_label_bounded;
    case "pool: decide allocation budget with a null access sink"
      test_decide_allocation_budget;
    case "gc attribution: handler pauses land in srv.http.gc_pause.us"
      test_gc_attribution;
    case "debug vars: gc, clock and providers" test_debug_vars;
    case "healthz: snapshot age and collector liveness"
      test_healthz_liveness_fields;
    case "heatmap: per-buffer rows from live decides"
      test_heatmap_endpoints;
    case "daemon: pipelined decides do not stall on Nagle"
      test_pipelined_pairs_no_stall;
    slow_case "daemon: 10k-request loopback soak + metrics scrape"
      test_soak_10k_decides;
  ]
