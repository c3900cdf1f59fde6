(** Buffered socket I/O with absolute deadlines.

    The serving layer reads requests through a {!reader}: a fixed
    buffer over a [Unix.file_descr] with byte-, line- and
    exact-length reads, each bounded by an absolute monotonic
    {!deadline} so a trickling peer cannot hold a worker forever.
    Writes are unbuffered ([write] until done) — responses are
    serialized into one string first (see {!Http.write_response}). *)

exception Timeout of string
(** A deadline passed while waiting for the peer; the payload names
    the operation. *)

exception Closed
(** The peer closed the connection mid-read. *)

exception Line_too_long
(** {!read_line} hit its [max] before the line terminator. *)

type deadline = int64 option
(** Absolute {!Obs.Clock.monotonic_ns} instant; [None] = no limit. *)

val deadline_in : float -> deadline
(** [deadline_in s] is the instant [s] seconds from now.  Raises
    [Invalid_argument] unless [s] is finite and positive. *)

type reader

val reader : ?buf_size:int -> Unix.file_descr -> reader
(** Default buffer: 8 KiB. *)

val read_line : reader -> max:int -> deadline -> string option
(** One line, CRLF or LF terminated, terminator stripped.  [None] on
    clean EOF before the first byte; raises {!Closed} on EOF mid-line
    and {!Line_too_long} past [max] bytes ([max] counts every byte
    before the ['\n'], a ['\r'] included).  A line already whole in
    the buffer is sliced out in one copy; otherwise it is read byte by
    byte across refills. *)

val read_exact : reader -> int -> deadline -> string
(** Exactly [n] bytes; raises {!Closed} on early EOF. *)

val write_string : Unix.file_descr -> string -> unit
(** Write the whole string, retrying on short writes and [EINTR]. *)
