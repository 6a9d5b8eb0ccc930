open Contention
module Approx = Check.Reference.Approx
module Exact = Check.Reference.Exact

let test_second_order_closed_form () =
  (* Equation 5: W = sum_i w_i (1 + 1/2 sum_(j<>i) P_j). *)
  let a = Prob.make ~p:0.4 ~mu:10. ~tau:20. in
  let b = Prob.make ~p:0.6 ~mu:25. ~tau:50. in
  let c = Prob.make ~p:0.2 ~mu:5. ~tau:10. in
  let expected =
    (10. *. 0.4 *. (1. +. (0.5 *. 0.8)))
    +. (25. *. 0.6 *. (1. +. (0.5 *. 0.6)))
    +. (5. *. 0.2 *. (1. +. (0.5 *. 1.0)))
  in
  Fixtures.check_float "closed form" expected (Approx.second_order [ a; b; c ]);
  Fixtures.check_float "order:2 agrees" expected (Approx.waiting_time ~order:2 [ a; b; c ])

let test_two_actors_all_orders_equal () =
  (* With two contenders the series has a single term, so every order >= 2
     equals the exact value. *)
  let loads = [ Prob.make ~p:0.5 ~mu:10. ~tau:20.; Prob.make ~p:0.3 ~mu:20. ~tau:40. ] in
  let exact = Exact.waiting_time loads in
  List.iter
    (fun order ->
      Fixtures.check_float "order = exact" exact (Approx.waiting_time ~order loads))
    [ 2; 3; 4; 7 ]

let test_invalid_order () =
  match Approx.waiting_time ~order:1 [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "order 1 accepted"

let test_empty () =
  Fixtures.check_float "empty" 0. (Approx.second_order []);
  Fixtures.check_float "empty o4" 0. (Approx.fourth_order [])

let prop_high_order_is_exact =
  (* Order >= number of contenders + 1 leaves nothing truncated. *)
  Fixtures.qcheck_case "high order = exact" (Fixtures.load_gen ()) (fun loads ->
      let exact = Exact.waiting_time loads in
      let full = Approx.waiting_time ~order:(Int.max 2 (List.length loads + 1)) loads in
      Fixtures.float_eq ~eps:1e-9 exact full)

let prop_second_conservative =
  (* The paper: "the second order estimate is always more conservative than
     the fourth order estimate". *)
  Fixtures.qcheck_case "second >= fourth" (Fixtures.load_gen ()) (fun loads ->
      Approx.second_order loads +. 1e-9 >= Approx.fourth_order loads)

let prop_fourth_above_exact =
  (* Truncating after a positive series term over-estimates. *)
  Fixtures.qcheck_case "fourth >= exact" (Fixtures.load_gen ()) (fun loads ->
      Approx.fourth_order loads +. 1e-9 >= Exact.waiting_time loads)

let prop_even_orders_decrease =
  (* For up to six contenders the truncation terms shrink with the degree,
     so the even-order over-estimates close in on the exact value
     monotonically.  (With more contenders the symmetric-polynomial terms
     need not be monotone and only order-2 >= order-4 — the paper's
     observation — survives; see [prop_second_conservative].) *)
  Fixtures.qcheck_case "even orders decrease towards exact"
    (Fixtures.load_gen ~max_actors:6 ()) (fun loads ->
      let w o = Approx.waiting_time ~order:o loads in
      w 2 +. 1e-9 >= w 4 && w 4 +. 1e-9 >= w 6 && w 6 +. 1e-9 >= Exact.waiting_time loads)

let prop_second_order_matches_generic =
  Fixtures.qcheck_case "closed form = generic order 2" (Fixtures.load_gen ())
    (fun loads ->
      Fixtures.float_eq ~eps:1e-9 (Approx.second_order loads)
        (Approx.waiting_time ~order:2 loads))

let suite =
  [
    Alcotest.test_case "second order closed form" `Quick test_second_order_closed_form;
    Alcotest.test_case "two actors: orders equal" `Quick test_two_actors_all_orders_equal;
    Alcotest.test_case "invalid order" `Quick test_invalid_order;
    Alcotest.test_case "empty" `Quick test_empty;
    prop_high_order_is_exact;
    prop_second_conservative;
    prop_fourth_above_exact;
    prop_even_orders_decrease;
    prop_second_order_matches_generic;
  ]
