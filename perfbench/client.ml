(* The load generator's HTTP/1.1 client: one persistent connection,
   one outstanding request, responses parsed from a growable buffer.
   When the server ends the connection (its keep-alive request
   budget), the next request goes out on a fresh one, as any client
   would do. *)

type t = {
  port : int;
  mutable fd : Unix.file_descr option;
  mutable buf : Bytes.t;
  mutable lo : int;  (** first unconsumed byte *)
  mutable hi : int;  (** end of buffered data *)
  mutable reconnects : int;
}

type response = {
  status : int;
  body : string;
  close : bool;  (** the server closes the connection after this answer *)
}

exception Protocol of string

let open_fd port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let create port = { port; fd = None; buf = Bytes.create 65536; lo = 0; hi = 0; reconnects = -1 }

let close c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None;
  c.lo <- 0;
  c.hi <- 0

let fd c =
  match c.fd with
  | Some fd -> fd
  | None ->
      let fd = open_fd c.port in
      c.fd <- Some fd;
      c.reconnects <- c.reconnects + 1;
      fd

let send c s =
  let fd = fd c in
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* Read whatever the socket has into the buffer (blocking once). *)
let fill c =
  if c.lo = c.hi then begin
    c.lo <- 0;
    c.hi <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let b = Bytes.create (2 * Bytes.length c.buf) in
    Bytes.blit c.buf c.lo b 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0;
    c.buf <- b
  end;
  match Unix.read (fd c) c.buf c.hi (Bytes.length c.buf - c.hi) with
  | 0 -> raise (Protocol "connection closed before the answer")
  | n -> c.hi <- c.hi + n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let header_end c =
  let rec scan i =
    if i + 3 >= c.hi then None
    else if
      Bytes.get c.buf i = '\r'
      && Bytes.get c.buf (i + 1) = '\n'
      && Bytes.get c.buf (i + 2) = '\r'
      && Bytes.get c.buf (i + 3) = '\n'
    then Some (i + 4)
    else scan (i + 1)
  in
  scan c.lo

(* The value of header [name] (lowercase, with its colon) in the
   lowercased head, if present. *)
let header_value head name =
  let key = "\n" ^ name in
  let kl = String.length key and hl = String.length head in
  let rec find i =
    if i + kl > hl then None
    else if String.sub head i kl = key then begin
      let j = ref (i + kl) in
      while !j < hl && head.[!j] = ' ' do incr j done;
      let k = ref !j in
      while !k < hl && head.[!k] <> '\r' do incr k done;
      Some (String.sub head !j (!k - !j))
    end
    else find (i + 1)
  in
  find 0

(* One complete response off the buffered bytes, if there is one. *)
let take c =
  match header_end c with
  | None -> None
  | Some e ->
      let head = String.lowercase_ascii (Bytes.sub_string c.buf c.lo (e - c.lo)) in
      if String.length head < 12 || not (String.starts_with ~prefix:"http/1." head)
      then raise (Protocol "bad status line");
      let status = int_of_string (String.sub head 9 3) in
      let len =
        match Option.bind (header_value head "content-length:") int_of_string_opt with
        | Some n -> n
        | None -> raise (Protocol "no content-length")
      in
      if c.hi - e < len then None
      else begin
        let body = Bytes.sub_string c.buf e len in
        c.lo <- e + len;
        Some { status; body; close = header_value head "connection:" = Some "close" }
      end

(* One blocking round trip.  A [connection: close] answer closes this
   side too, so the next request opens a fresh connection. *)
let request c s =
  send c s;
  let rec wait () =
    match take c with
    | Some r -> r
    | None ->
        fill c;
        wait ()
  in
  let r = wait () in
  if r.close then close c;
  r

let one_shot port s =
  let c = create port in
  Fun.protect ~finally:(fun () -> close c) (fun () -> request c s)

(* {2 Request bytes} *)

let post path body =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nhost: perfbench\r\ncontent-type: application/json\r\ncontent-length: %d\r\n\r\n%s"
    path (String.length body) body

let get path = Printf.sprintf "GET %s HTTP/1.1\r\nhost: perfbench\r\n\r\n" path
