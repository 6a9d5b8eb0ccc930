type 'a t = {
  enc : 'a -> Json.t;
  dec : string -> Json.t -> ('a, string) result;
      (* The key the value sits under, for the wrong-type message. *)
}

let to_json c v = c.enc v
let of_json c j = c.dec "" j
let missing key = Error (Printf.sprintf "missing field %S" key)
let wrong_type key = Error (Printf.sprintf "field %S has the wrong type" key)

let prim get enc =
  { enc; dec = (fun key j -> match get j with Some v -> Ok v | None -> wrong_type key) }

let string = prim Json.get_str (fun s -> Json.Str s)
let num = prim Json.get_num (fun x -> Json.Num x)
let int = prim Json.get_int (fun n -> Json.Num (float_of_int n))
let bool = prim Json.get_bool (fun b -> Json.Bool b)
let any = prim Option.some Fun.id

let list c =
  let rec from_right key acc = function
    | [] -> Ok acc
    | x :: xs -> (
        match c.dec key x with Ok v -> from_right key (v :: acc) xs | Error _ as e -> e)
  in
  (* The rightmost faulty element is the one reported. *)
  let dec key = function
    | Json.Arr xs -> from_right key [] (List.rev xs)
    | _ -> wrong_type key
  in
  { enc = (fun xs -> Json.Arr (List.map c.enc xs)); dec }

let some c =
  {
    enc = (function Some v -> c.enc v | None -> Json.Null);
    dec = (fun key j -> Result.map Option.some (c.dec key j));
  }

let map dec enc c =
  { enc = (fun v -> c.enc (enc v)); dec = (fun key j -> Result.bind (c.dec key j) dec) }

type field = { key : string; required : bool }

(* Decoding applies the constructor ['k] to each field in turn; encoding
   collects each field's value, in reverse, before the continuation. *)
type ('k, 'r, 'e, 'z) fields = {
  decode : Json.t -> 'k -> ('r, string) result;
  encode : ((string * Json.t) list -> 'z) -> (string * Json.t) list -> 'e;
  keys : field list;
}

let ( ++ ) f g =
  {
    decode = (fun j k -> Result.bind (f.decode j k) (g.decode j));
    encode = (fun kont -> f.encode (g.encode kont));
    keys = f.keys @ g.keys;
  }

(* One member: [absent ()] is read when the key is missing, or null when
   [null]; a value [skip] holds for is not printed. *)
let member ?(null = false) ?(skip = fun _ -> false) ?(required = false) ~absent key c =
  {
    decode =
      (fun j k ->
        Result.map k
          (match Json.member key j with
          | Some Json.Null when null -> absent ()
          | Some v -> c.dec key v
          | None -> absent ()));
    encode =
      (fun kont acc v -> kont (if skip v then acc else (key, c.enc v) :: acc));
    keys = [ { key; required } ];
  }

let req key c = member ~required:true ~absent:(fun () -> missing key) key c

let opt key c =
  member ~null:true ~skip:Option.is_none ~absent:(fun () -> Ok None) key (some c)

let dft key d c = member ~null:true ~absent:(fun () -> Ok d) key c
let omit key d c = member ~skip:(( = ) d) ~absent:(fun () -> Ok d) key c

let lenient key d c =
  let dec key j = Ok (Result.value ~default:d (c.dec key j)) in
  member ~absent:(fun () -> Ok d) key { c with dec }

let section ?(optional = false) key fs =
  {
    decode =
      (fun j k ->
        match Json.member key j with
        | Some v -> fs.decode v k
        | None -> if optional then fs.decode Json.Null k else missing key);
    encode =
      (fun kont acc ->
        fs.encode (fun inner -> kont ((key, Json.Obj (List.rev inner)) :: acc)) []);
    keys = [ { key; required = not optional } ];
  }

let checked check fs =
  match check with
  | None -> fs
  | Some check ->
      let decode j k =
        Result.bind (fs.decode j k) (fun r -> Result.map (fun () -> r) (check r))
      in
      { fs with decode }

let obj ?check make dest fs =
  let fs = checked check fs in
  let emit = fs.encode (fun acc -> Json.Obj (List.rev acc)) in
  { enc = (fun r -> dest r (emit [])); dec = (fun _ j -> fs.decode j make) }

type 'a case =
  | Case : {
      tag : string;
      make : 'k;
      dest : 'a -> ('e -> Json.t) option;
      fs : ('k, 'a, 'e, Json.t) fields;
    }
      -> 'a case

let case ?check tag make dest fs =
  Case { tag; make; dest; fs = checked check fs }

let case0 tag v =
  let none = { decode = (fun _ k -> Ok k); encode = Fun.id; keys = [] } in
  case tag v (fun x -> if x == v then Some Fun.id else None) none

let tag (Case c) = c.tag
let fields (Case c) = c.fs.keys
let matches (Case c) v = Option.is_some (c.dest v)

let variant ~key ~what cases =
  let encoders =
    List.map
      (fun (Case c) ->
        let emit =
          c.fs.encode (fun acc -> Json.Obj ((key, Json.Str c.tag) :: List.rev acc))
        in
        fun v -> Option.map (fun dest -> dest (emit [])) (c.dest v))
      cases
  in
  let dec _ j =
    match Json.member key j with
    | None -> missing key
    | Some (Json.Str t) -> (
        match List.find_opt (fun c -> tag c = t) cases with
        | Some (Case c) -> c.fs.decode j c.make
        | None -> Error (Printf.sprintf "unknown %s %S" what t))
    | Some _ -> wrong_type key
  in
  { enc = (fun v -> Option.get (List.find_map (fun e -> e v) encoders)); dec }
