(** A minimal JSON codec for the wire protocol.

    The project deliberately carries no external JSON dependency; the daemon
    only needs objects, arrays, strings, finite numbers, booleans and null,
    with a printer whose float representation round-trips IEEE doubles
    bit-for-bit (so cached estimate answers equal direct
    {!Contention.Analysis} calls down to the last bit).

    {!of_string} is total: any byte string yields [Ok] or [Error], never an
    exception — malformed frames from the network must not crash the
    server.  Nesting depth is bounded to keep adversarial inputs like
    ["[[[[…"] from overflowing the stack. *)

type encoded
(** JSON text made by {!encode}, and only by it: it always holds what this
    module's printer produced for some value. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Encoded of encoded
      (** A pre-encoded value, printed verbatim.  It lets a value that is
          sent many times be formatted once: the server's estimate cache
          keeps each entry's rows as [Encoded] text made when the entry is
          filled, so a cache hit formats no float.  {!of_string} never
          yields it, and the accessors below return [None] on it. *)

val to_string : t -> string
(** Compact (single-line) rendering.  Integral numbers of magnitude below
    1e15 print without a fractional part; all other finite numbers print
    with 17 significant digits, which reparses to the identical double.
    An [Encoded] node prints its text unchanged, so
    [to_string (Encoded (encode v)) = to_string v].
    @raise Invalid_argument on a NaN or infinite number — JSON cannot
    represent them. *)

val encode : t -> encoded
(** [to_string], kept for splicing into later values as [Encoded].
    @raise Invalid_argument as {!to_string}. *)

val of_string : ?max_depth:int -> string -> (t, string) result
(** Strict parse of exactly one JSON value (surrounding whitespace allowed;
    trailing bytes are an error).  The standard escapes — backslash-quote,
    backslash-backslash, [\/ \b \f \n \r \t \uXXXX] — are decoded ([\u]
    surrogate pairs become UTF-8).  Numbers that overflow the IEEE double
    range (["1e999"]) are an error, so every parsed value re-serializes.
    A leading zero before another digit (["01"], ["-01"], ["00.5"]) is an
    error, as RFC 8259 §6 requires.
    [max_depth] (default 512) bounds array/object nesting.  Error messages
    carry the byte offset. *)

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an object. *)

val get_str : t -> string option
val get_num : t -> float option
val get_int : t -> int option
(** Integral {!Num} only. *)

val get_bool : t -> bool option
val get_arr : t -> t list option
val get_obj : t -> (string * t) list option
