open Contention
module Exact = Check.Reference.Exact

let single_load =
  let open QCheck2.Gen in
  let* p = float_bound_inclusive 0.95 in
  let* tau = float_range 1. 100. in
  return (Prob.make ~p ~mu:(tau /. 2.) ~tau)

let compose_gen = QCheck2.Gen.map Compose.of_load single_load

let test_paper_equations () =
  (* Eq. 6/7 on concrete numbers. *)
  let a = Compose.of_load (Prob.make ~p:0.4 ~mu:10. ~tau:20.) in
  let b = Compose.of_load (Prob.make ~p:0.6 ~mu:25. ~tau:50.) in
  let ab = Compose.combine a b in
  Fixtures.check_float "P_ab" (0.4 +. 0.6 -. 0.24) ab.p;
  Fixtures.check_float "W_ab"
    ((10. *. 0.4 *. (1. +. 0.3)) +. (25. *. 0.6 *. (1. +. 0.2)))
    ab.w

let test_empty_neutral () =
  let a = Compose.of_load (Prob.make ~p:0.4 ~mu:10. ~tau:20.) in
  let left = Compose.combine Compose.empty a in
  let right = Compose.combine a Compose.empty in
  Fixtures.check_float "left id p" a.p left.p;
  Fixtures.check_float "left id w" a.w left.w;
  Fixtures.check_float "right id p" a.p right.p;
  Fixtures.check_float "right id w" a.w right.w

let test_two_actor_waiting_matches_exact () =
  (* For exactly two contenders Eq. 7 equals Eq. 4. *)
  let loads = [ Prob.make ~p:0.5 ~mu:10. ~tau:20.; Prob.make ~p:0.3 ~mu:20. ~tau:40. ] in
  Fixtures.check_float "pair = exact" (Exact.waiting_time loads)
    (Compose.waiting_time loads)

let test_remove_p_one_rejected () =
  let saturated = Compose.of_load (Prob.make ~p:1. ~mu:10. ~tau:20.) in
  let total = Compose.combine saturated (Compose.of_load (Prob.make ~p:0.5 ~mu:5. ~tau:10.)) in
  match Compose.remove ~total saturated with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverse with p = 1 accepted"

let test_incremental_equals_fold () =
  let loads =
    [
      Prob.make ~p:0.2 ~mu:10. ~tau:20.;
      Prob.make ~p:0.3 ~mu:15. ~tau:30.;
      Prob.make ~p:0.4 ~mu:20. ~tau:40.;
    ]
  in
  let all = Compose.combine_all (List.map Compose.of_load loads) in
  List.iteri
    (fun i own ->
      let others = List.filteri (fun j _ -> j <> i) loads in
      let direct = Compose.waiting_time others in
      let incremental =
        Compose.waiting_time_incremental ~all ~own:(Compose.of_load own)
      in
      (* ⊗ is associative only to second order; the two paths agree within a
         few percent for realistic probabilities. *)
      if not (Fixtures.float_eq ~eps:0.05 direct incremental) then
        Alcotest.failf "fold %g vs incremental %g" direct incremental)
    loads

let prop_commutative =
  Fixtures.qcheck_case "combine commutative" QCheck2.Gen.(pair compose_gen compose_gen)
    (fun (a, b) ->
      let x = Compose.combine a b and y = Compose.combine b a in
      Fixtures.float_eq ~eps:1e-12 x.p y.p && Fixtures.float_eq ~eps:1e-12 x.w y.w)

let prop_p_associative =
  (* ⊕ is exactly associative (the paper proves this). *)
  Fixtures.qcheck_case "p associative" QCheck2.Gen.(triple compose_gen compose_gen compose_gen)
    (fun (a, b, c) ->
      let left = Compose.combine (Compose.combine a b) c in
      let right = Compose.combine a (Compose.combine b c) in
      Fixtures.float_eq ~eps:1e-9 left.p right.p)

let prop_w_associative_second_order =
  (* ⊗ is associative to second order; the exact re-association residue is
     (3/4) * (p_b p_c w_a - p_a p_b w_c), a pure third-order term. *)
  Fixtures.qcheck_case "w associative to 2nd order"
    QCheck2.Gen.(triple compose_gen compose_gen compose_gen) (fun (a, b, c) ->
      let left = Compose.combine (Compose.combine a b) c in
      let right = Compose.combine a (Compose.combine b c) in
      let residue = 0.75 *. ((b.p *. c.p *. a.w) -. (a.p *. b.p *. c.w)) in
      Fixtures.float_eq ~eps:1e-9 (left.w -. right.w) residue)

let prop_remove_inverts =
  (* remove is an exact inverse of combine (Eq. 8-9). *)
  Fixtures.qcheck_case "remove inverts combine" QCheck2.Gen.(pair compose_gen compose_gen)
    (fun (a, b) ->
      let total = Compose.combine a b in
      let back = Compose.remove ~total b in
      Fixtures.float_eq ~eps:1e-9 a.p back.p && Fixtures.float_eq ~eps:1e-6 a.w back.w)

let prop_probability_range =
  Fixtures.qcheck_case "combined p stays in [0,1]" QCheck2.Gen.(pair compose_gen compose_gen)
    (fun (a, b) ->
      let c = Compose.combine a b in
      c.p >= -1e-12 && c.p <= 1. +. 1e-12)

let suite =
  [
    Alcotest.test_case "paper equations" `Quick test_paper_equations;
    Alcotest.test_case "empty neutral" `Quick test_empty_neutral;
    Alcotest.test_case "pair matches exact" `Quick test_two_actor_waiting_matches_exact;
    Alcotest.test_case "remove p=1 rejected" `Quick test_remove_p_one_rejected;
    Alcotest.test_case "incremental = fold" `Quick test_incremental_equals_fold;
    prop_commutative;
    prop_p_associative;
    prop_w_associative_second_order;
    prop_remove_inverts;
    prop_probability_range;
  ]

(* combine_all is order-insensitive in p (⊕ exactly associative/commutative)
   and second-order stable in w: any permutation stays within the
   third-order residue of the sorted fold. *)
let prop_fold_order_stability =
  let moderate_load =
    let open QCheck2.Gen in
    let* p = float_bound_inclusive 0.5 in
    let* tau = float_range 1. 100. in
    return (Prob.make ~p ~mu:(tau /. 2.) ~tau)
  in
  Fixtures.qcheck_case ~count:100 "fold order stability"
    QCheck2.Gen.(list_size (int_range 2 6) moderate_load)
    (fun loads ->
      let ts = List.map Compose.of_load loads in
      let forward = Compose.combine_all ts in
      let backward = Compose.combine_all (List.rev ts) in
      (* p is exactly order-free; w only to second order, so for moderate
         probabilities (p <= 0.5) reversal moves it by a bounded fraction. *)
      Fixtures.float_eq ~eps:1e-9 forward.p backward.p
      && Float.abs (forward.w -. backward.w)
         <= (0.30 *. Float.max 1. forward.w) +. 1e-9)

let suite = suite @ [ prop_fold_order_stability ]
