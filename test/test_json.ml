(* The serve JSON codec: printer/parser round-trip with bit-for-bit number
   equality, totality of the parser on arbitrary and on corrupted bytes, and
   the strictness corners (escapes, surrogate pairs, depth limit, trailing
   bytes, raw control characters). *)

open QCheck2
module Json = Serve.Json

(* Structural equality with bitwise float comparison: the codec promises
   that cached estimates reparse to the identical IEEE double, and OCaml's
   polymorphic (=) would paper over -0. vs 0. *)
let rec json_eq a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Json.Arr xs, Json.Arr ys ->
      List.length xs = List.length ys && List.for_all2 json_eq xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && json_eq v v')
           xs ys
  | (Json.Null | Json.Bool _ | Json.Str _), _ -> a = b
  | _ -> false

let finite_float =
  let open Gen in
  map
    (fun f -> if Float.is_finite f then f else 0.)
    (oneof
       [
         float;
         map float_of_int (int_range (-1_000_000) 1_000_000);
         oneofl
           [
             0.; -0.; 1.; -1.; 0.1; -0.1; 1e-300; 4.94e-324;
             1.7976931348623157e308; 1e15; 1e15 -. 1.; Float.pi;
           ];
       ])

(* Arbitrary-byte strings (not just printable): the escaper must handle
   control characters and non-UTF-8 bytes. *)
let byte_string = Gen.(string_size ~gen:char (int_bound 20))

let json_gen =
  let open Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun x -> Json.Num x) finite_float;
        map (fun s -> Json.Str s) byte_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map
                   (fun xs -> Json.Arr xs)
                   (list_size (int_bound 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair byte_string (self (n / 2))))
               );
             ])

let prop_roundtrip =
  Fixtures.qcheck_case ~count:500 "of_string inverts to_string (bit-for-bit)"
    json_gen (fun j ->
      match Json.of_string (Json.to_string j) with
      | Ok j' -> json_eq j j'
      | Error e -> Test.fail_reportf "reparse failed: %s" e)

let prop_total_on_garbage =
  Fixtures.qcheck_case ~count:1000 "of_string never raises on arbitrary bytes"
    Gen.(string_size ~gen:char (int_bound 60))
    (fun s ->
      match Json.of_string s with Ok _ -> true | Error _ -> true)

(* Corrupting one byte of a valid document must yield Ok or Error — never an
   exception — and any Ok must still print. *)
let prop_total_on_corruption =
  Fixtures.qcheck_case ~count:500 "of_string survives single-byte corruption"
    Gen.(triple json_gen small_nat char)
    (fun (j, i, c) ->
      let s = Bytes.of_string (Json.to_string j) in
      Bytes.set s (i mod Bytes.length s) c;
      match Json.of_string (Bytes.to_string s) with
      | Ok v ->
          ignore (Json.to_string v : string);
          true
      | Error _ -> true
      | exception Invalid_argument _ ->
          (* The corrupted document may parse to a NaN?  It cannot: JSON has
             no NaN literal; to_string must accept every parsed value. *)
          false)

let check_parse msg expected s =
  match Json.of_string s with
  | Ok v ->
      if not (json_eq expected v) then
        Alcotest.failf "%s: parsed %s" msg (Json.to_string v)
  | Error e -> Alcotest.failf "%s: %s" msg e

let check_error msg s =
  match Json.of_string s with
  | Ok v -> Alcotest.failf "%s: unexpectedly parsed %s" msg (Json.to_string v)
  | Error _ -> ()

let test_escapes () =
  check_parse "standard escapes"
    (Json.Str "a\nb\tA\\ \"/\b\012\r")
    {|"a\nb\tA\\ \"\/\b\f\r"|};
  check_parse "\\u BMP escape" (Json.Str "A\xc3\xa9") {|"Aé"|};
  check_parse "surrogate pair" (Json.Str "\xf0\x9f\x98\x80") {|"😀"|};
  check_error "unpaired high surrogate" {|"\ud83d"|};
  check_error "unpaired low surrogate" {|"\ude00"|};
  check_error "bad escape" {|"\q"|};
  check_error "raw control character" "\"a\nb\"";
  check_error "truncated \\u" {|"\u00|}

let test_strictness () =
  check_parse "surrounding whitespace" (Json.Num 42.) " 42 ";
  check_error "trailing bytes" "1 2";
  check_error "empty input" "";
  check_error "bare minus" "-";
  check_error "overflowing number" "1e999";
  check_error "leading plus" "+1";
  check_error "unterminated array" "[1, 2";
  check_error "unterminated object" {|{"a": 1|};
  check_error "lone closing bracket" "]";
  (* RFC 8259 §6: no leading zeros. *)
  check_error "leading zero" "01";
  check_error "negative leading zero" "-01";
  check_error "double zero before a fraction" "00.5";
  check_parse "zero" (Json.Num 0.) "0";
  check_parse "negative zero" (Json.Num (-0.)) "-0";
  check_parse "zero-led fraction" (Json.Num 0.5) "0.5";
  check_parse "negative zero fraction" (Json.Num (-0.)) "-0.0";
  check_parse "zero with exponent" (Json.Num 0.) "0e1";
  (match Json.of_string "nul" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated keyword parsed");
  (* Offsets in messages. *)
  match Json.of_string "[1, x]" with
  | Error e ->
      if not (Fixtures.contains ~affix:"offset" e) then
        Alcotest.failf "no offset in error: %s" e
  | Ok _ -> Alcotest.fail "parsed [1, x]"

let test_depth_limit () =
  let deep n = String.make n '[' ^ String.make n ']' in
  check_parse "nested arrays below the limit"
    (Json.Arr [ Json.Arr [ Json.Arr [] ] ])
    (deep 3);
  (match Json.of_string ~max_depth:8 (deep 10) with
  | Error e ->
      if not (Fixtures.contains ~affix:"deep" e) then
        Alcotest.failf "unexpected error: %s" e
  | Ok _ -> Alcotest.fail "parsed past max_depth");
  (* The default limit must reject adversarial nesting without touching the
     OS stack. *)
  match Json.of_string (String.make 100_000 '[') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed unterminated deep nesting"

let test_numbers () =
  List.iter
    (fun x ->
      match Json.of_string (Json.to_string (Json.Num x)) with
      | Ok (Json.Num y) ->
          if Int64.bits_of_float x <> Int64.bits_of_float y then
            Alcotest.failf "%h reparsed to %h" x y
      | Ok v -> Alcotest.failf "%h reparsed to %s" x (Json.to_string v)
      | Error e -> Alcotest.failf "%h: %s" x e)
    [
      0.; -0.; 0.1; 2. /. 3.; 1e15 -. 1.; 1e15; 1e300; 4.94e-324;
      Float.max_float; Float.min_float; 1. /. 3.; 123456789.123456789;
    ];
  (try
     ignore (Json.to_string (Json.Num Float.nan) : string);
     Alcotest.fail "NaN printed"
   with Invalid_argument _ -> ());
  try
    ignore (Json.to_string (Json.Num Float.infinity) : string);
    Alcotest.fail "infinity printed"
  with Invalid_argument _ -> ()

let test_accessors () =
  let obj = Json.Obj [ ("a", Json.Num 3.); ("b", Json.Str "x") ] in
  (match Json.member "a" obj with
  | Some (Json.Num 3.) -> ()
  | _ -> Alcotest.fail "member a");
  (match Json.member "missing" obj with
  | None -> ()
  | Some _ -> Alcotest.fail "member missing");
  (match Json.get_int (Json.Num 3.) with
  | Some 3 -> ()
  | _ -> Alcotest.fail "get_int 3");
  (match Json.get_int (Json.Num 3.5) with
  | None -> ()
  | Some _ -> Alcotest.fail "get_int 3.5");
  (match Json.get_str (Json.Num 3.) with
  | None -> ()
  | Some _ -> Alcotest.fail "get_str on Num");
  (* A pre-encoded node is opaque to every accessor. *)
  let enc = Json.Encoded (Json.encode obj) in
  if
    Json.member "a" enc <> None
    || Json.get_obj enc <> None
    || Json.get_arr enc <> None
    || Json.get_str enc <> None
    || Json.get_num enc <> None
  then Alcotest.fail "accessor looked inside an Encoded node"

(* --- byte-identity against the Printf-based printer ------------------- *)

(* The printer as it was written with Printf: the oracle the faster printer
   must match byte for byte. *)
let oracle_to_string v =
  let buf = Buffer.create 256 in
  let add_escaped s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  in
  let add_num x =
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" x)
    else Buffer.add_string buf (Printf.sprintf "%.17g" x)
  in
  let rec go = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Num x -> add_num x
    | Json.Str s -> add_escaped s
    | Json.Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
    | Json.Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            add_escaped k;
            Buffer.add_char buf ':';
            go x)
          kvs;
        Buffer.add_char buf '}'
    | Json.Encoded _ -> Alcotest.fail "the oracle prints no Encoded node"
  in
  go v;
  Buffer.contents buf

(* Every finite double is reachable from a random bit pattern; the edges of
   the integral fast path and of the subnormal and finite range are added
   by hand. *)
let bits_float =
  let open Gen in
  oneof
    [
      map
        (fun b ->
          let x = Int64.float_of_bits b in
          if Float.is_finite x then x else Float.of_int (Int64.to_int b))
        int64;
      oneofl
        [
          -0.; 0.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 4.94e-324;
          -4.94e-324; Float.max_float; -.Float.max_float;
        ];
      map float_of_int (int_range (-1_000_000) 1_000_000);
    ]

let matches_oracle j =
  let got = Json.to_string j and want = oracle_to_string j in
  String.equal got want
  || Test.fail_reportf "printed %S, the oracle %S" got want

let prop_floats_match_oracle =
  Fixtures.qcheck_case ~count:2000 "numbers print as with Printf"
    bits_float (fun x -> matches_oracle (Json.Num x))

let prop_strings_match_oracle =
  Fixtures.qcheck_case ~count:1000 "strings of any bytes print as with Printf"
    Gen.(string_size ~gen:char (int_bound 40))
    (fun s -> matches_oracle (Json.Str s))

let prop_values_match_oracle =
  let gen =
    let open Gen in
    let scalar =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun x -> Json.Num x) bits_float;
          map (fun s -> Json.Str s) byte_string;
        ]
    in
    sized
    @@ fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun xs -> Json.Arr xs) (list_size (int_bound 4) (self (n / 2))));
                 ( 1,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4) (pair byte_string (self (n / 2)))) );
               ])
  in
  Fixtures.qcheck_case ~count:500 "nested values print as with Printf" gen
    (fun j ->
      matches_oracle j
      && String.equal (Json.to_string (Json.Encoded (Json.encode j))) (Json.to_string j))

let test_all_bytes_match_oracle () =
  let s = String.init 256 Char.chr in
  Alcotest.(check string) "all 256 byte values" (oracle_to_string (Json.Str s))
    (Json.to_string (Json.Str s))

(* The parser's integer fast path against float_of_string, bit for bit. *)
let same_bits_as_float_of_string lit =
  match Json.of_string lit with
  | Ok (Json.Num x) ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float (float_of_string lit))
      || Test.fail_reportf "%s parsed to %h, float_of_string gives %h" lit x
           (float_of_string lit)
  | Ok v -> Test.fail_reportf "%s parsed to %s" lit (Json.to_string v)
  | Error e -> Test.fail_reportf "%s: %s" lit e

let prop_integer_literals =
  let lit =
    let open Gen in
    let* neg = bool in
    let* len = int_range 1 (if neg then 14 else 15) in
    let* first = char_range '1' '9' in
    let+ rest = string_size ~gen:(char_range '0' '9') (return (len - 1)) in
    (if neg then "-" else "") ^ String.make 1 first ^ rest
  in
  Fixtures.qcheck_case ~count:1000 "integer literals parse as float_of_string"
    lit same_bits_as_float_of_string

let test_integer_edges () =
  List.iter
    (fun lit -> ignore (same_bits_as_float_of_string lit : bool))
    [
      "0"; "-0"; "7"; "-7"; "999999999999999"; "-99999999999999";
      "100000000000000"; "1000000000000000"; "-999999999999999";
    ]

let suite =
  [
    Alcotest.test_case "escapes" `Quick test_escapes;
    Alcotest.test_case "strictness" `Quick test_strictness;
    Alcotest.test_case "depth limit" `Quick test_depth_limit;
    Alcotest.test_case "number round-trip" `Quick test_numbers;
    Alcotest.test_case "accessors" `Quick test_accessors;
    prop_roundtrip;
    prop_total_on_garbage;
    prop_total_on_corruption;
    Alcotest.test_case "all bytes print as with Printf" `Quick
      test_all_bytes_match_oracle;
    Alcotest.test_case "integer literal edges" `Quick test_integer_edges;
    prop_floats_match_oracle;
    prop_strings_match_oracle;
    prop_values_match_oracle;
    prop_integer_literals;
  ]
