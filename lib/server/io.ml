exception Timeout of string
exception Closed

(* A deadline is an absolute monotonic instant; [None] waits forever.
   Absolute (rather than per-read relative) deadlines make the
   per-connection read timeout a real bound: a peer trickling one byte
   per second cannot reset the clock. *)
type deadline = int64 option

let deadline_in seconds =
  if not (Float.is_finite seconds) || seconds <= 0.0 then
    invalid_arg "Io.deadline_in: seconds must be finite and > 0";
  Some
    (Int64.add (Obs.Clock.monotonic_ns ())
       (Int64.of_float (seconds *. 1e9)))

(* Block until [fd] is readable or the deadline passes.  EINTR retries
   with the remaining budget recomputed from the monotonic clock. *)
let rec wait_readable ~label fd (deadline : deadline) =
  let timeout_s =
    match deadline with
    | None -> -1.0 (* select: wait forever *)
    | Some d ->
        let remaining_ns = Int64.sub d (Obs.Clock.monotonic_ns ()) in
        if Int64.compare remaining_ns 0L <= 0 then raise (Timeout label)
        else Int64.to_float remaining_ns *. 1e-9
  in
  match Unix.select [ fd ] [] [] timeout_s with
  | [], _, _ -> raise (Timeout label)
  | _ :: _, _, _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      wait_readable ~label fd deadline

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (** next unread byte in [buf] *)
  mutable len : int;  (** valid bytes in [buf] *)
}

let reader ?(buf_size = 8192) fd =
  if buf_size < 1 then invalid_arg "Io.reader: buf_size < 1";
  { fd; buf = Bytes.create buf_size; pos = 0; len = 0 }

(* Refill the buffer; false on EOF. *)
let refill r deadline =
  wait_readable ~label:"read" r.fd deadline;
  let rec read () =
    match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
    | 0 -> false
    | n ->
        r.pos <- 0;
        r.len <- n;
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
  in
  read ()

let read_byte r deadline =
  if r.pos >= r.len && not (refill r deadline) then raise Closed
  else begin
    let b = Bytes.get r.buf r.pos in
    r.pos <- r.pos + 1;
    b
  end

exception Line_too_long

(* One CRLF- (or bare-LF-) terminated line, terminator stripped.
   [None] on a clean EOF before any byte of the line; EOF mid-line
   raises [Closed]; more than [max] bytes before the terminator raises
   [Line_too_long]. *)
let read_line_slow r ~max deadline =
  let line = Buffer.create 128 in
  let rec go started =
    match read_byte r deadline with
    | exception Closed -> if started then raise Closed else None
    | '\n' ->
        let s = Buffer.contents line in
        let n = String.length s in
        Some (if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s)
    | c ->
        if Buffer.length line >= max then raise Line_too_long;
        Buffer.add_char line c;
        go true
  in
  go false

let rec buffered_newline r i =
  if i >= r.len then -1
  else if Bytes.get r.buf i = '\n' then i
  else buffered_newline r (i + 1)

(* Fast path: the whole line, terminator included, is already
   buffered, so it is sliced straight out of [buf].  Same results as
   the byte loop: the [max] cap counts every byte before the '\n'
   (a '\r' included). *)
let read_line r ~max deadline =
  let nl = buffered_newline r r.pos in
  if nl < 0 then read_line_slow r ~max deadline
  else begin
    let n = nl - r.pos in
    if n > max then raise Line_too_long;
    let n' = if n > 0 && Bytes.get r.buf (nl - 1) = '\r' then n - 1 else n in
    let line = Bytes.sub_string r.buf r.pos n' in
    r.pos <- nl + 1;
    Some line
  end

(* Exactly [n] bytes; raises [Closed] if the peer quits early. *)
let read_exact r n deadline =
  if n < 0 then invalid_arg "Io.read_exact: negative length";
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if r.pos >= r.len && not (refill r deadline) then raise Closed;
    let take = Stdlib.min (n - !filled) (r.len - r.pos) in
    Bytes.blit r.buf r.pos out !filled take;
    r.pos <- r.pos + take;
    filled := !filled + take
  done;
  Bytes.unsafe_to_string out

let rec write_all fd s pos len =
  if len > 0 then begin
    match Unix.write_substring fd s pos len with
    | n -> write_all fd s (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s pos len
  end

let write_string fd s = write_all fd s 0 (String.length s)
