(** Field codecs: one declaration per wire shape, read both ways.

    A record is declared once, as its constructor, its destructor and its
    fields in wire order:
    {[
      obj
        (fun app period -> { app; period })
        (fun r k -> k r.app r.period)
        (req "app" string ++ req "period" num)
    ]}
    {!to_json} prints the fields in that order and {!of_json} checks them
    in that order, reporting the first fault as ["missing field \"k\""],
    ["field \"k\" has the wrong type"] or the message of a {!map}.  A record
    read from a non-object reports its first required field missing; a
    list reports its rightmost faulty element.  Decoding never raises.

    What an absent field means is declared with it:
    - {!req}: an error;
    - {!opt}: [None], as does [null]; [None] is not printed;
    - {!dft}: the default, as does [null]; always printed;
    - {!lenient}: the default, as does any value that does not decode;
    - {!omit}: the default, which is not printed; [null] is decoded. *)

type 'a t

val to_json : 'a t -> 'a -> Json.t
val of_json : 'a t -> Json.t -> ('a, string) result

(** {1 Values} *)

val string : string t
val num : float t
val int : int t
(** Integral, magnitude at most 1e15 ({!Json.get_int}). *)

val bool : bool t
val any : Json.t t
val list : 'a t -> 'a list t
val some : 'a t -> 'a option t
(** Prints [None] as [null]. *)

val map : ('b -> ('a, string) result) -> ('a -> 'b) -> 'b t -> 'a t
(** [map dec enc c]: read with [c], then convert with [dec]. *)

(** {1 Records} *)

type ('k, 'r, 'e, 'z) fields
(** Fields that feed a constructor ['k] down to ['r] when decoding and
    take an emitter ['e] down to ['z] when encoding; one field of type
    ['a] is [('a -> 'r, 'r, 'a -> 'z, 'z) fields]. *)

val ( ++ ) :
  ('k, 'm, 'e, 'y) fields -> ('m, 'r, 'y, 'z) fields -> ('k, 'r, 'e, 'z) fields

val req : string -> 'a t -> ('a -> 'r, 'r, 'a -> 'z, 'z) fields
val opt : string -> 'a t -> ('a option -> 'r, 'r, 'a option -> 'z, 'z) fields
val dft : string -> 'a -> 'a t -> ('a -> 'r, 'r, 'a -> 'z, 'z) fields
val lenient : string -> 'a -> 'a t -> ('a -> 'r, 'r, 'a -> 'z, 'z) fields
val omit : string -> 'a -> 'a t -> ('a -> 'r, 'r, 'a -> 'z, 'z) fields

val section :
  ?optional:bool -> string -> ('k, 'r, 'e, 'z) fields -> ('k, 'r, 'e, 'z) fields
(** The fields, inside a nested object under the key.  A missing section is
    an error unless [optional]; then its fields are read from [null]. *)

val obj :
  ?check:('r -> (unit, string) result) ->
  'k ->
  ('r -> 'e -> Json.t) ->
  ('k, 'r, 'e, Json.t) fields ->
  'r t
(** [obj make dest fields]: [dest r emit] passes [r]'s fields to [emit];
    [check] vets a value once all its fields have decoded. *)

(** {1 Tagged variants} *)

type 'a case

val case :
  ?check:('a -> (unit, string) result) ->
  string ->
  'k ->
  ('a -> ('e -> Json.t) option) ->
  ('k, 'a, 'e, Json.t) fields ->
  'a case
(** [case tag make dest fields], as {!obj}; [dest v] is [None] when [v] is
    another case. *)

val case0 : string -> 'a -> 'a case
(** A constant constructor. *)

val variant : key:string -> what:string -> 'a case list -> 'a t
(** Objects whose string member [key] names the case, then the case's
    fields.  An unknown tag is ["unknown <what> \"tag\""]. *)

(** {1 Introspection} *)

type field = {
  key : string;
  required : bool;  (** Declared with {!req}, or a required section. *)
}

val tag : 'a case -> string
val fields : 'a case -> field list
val matches : 'a case -> 'a -> bool
