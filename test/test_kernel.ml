(* The zero-allocation estimator kernel (lib/core/kernel.ml): flat evaluators
   against the list-based reference paths, the incremental group basis, the
   batched engine entry points, and the warm-path allocation budget. *)

open Contention

let arrays_of loads =
  let n = List.length loads in
  let p = Array.make (Int.max 1 n) 0.
  and mu = Array.make (Int.max 1 n) 0.
  and tau = Array.make (Int.max 1 n) 0. in
  List.iteri
    (fun i (l : Prob.t) ->
      p.(i) <- l.p;
      mu.(i) <- l.mu;
      tau.(i) <- l.tau)
    loads;
  (p, mu, tau)

let others loads t = List.filteri (fun i _ -> i <> t) loads

(* The evaluators must reproduce the reference implementations bit for bit —
   not merely within a tolerance — because estimate_prepared answers must
   equal the pre-kernel engine's on every golden pin and serve cache key. *)
let prop_evaluators_bit_match =
  Fixtures.qcheck_case "evaluators = list paths, bitwise"
    (Fixtures.load_gen ~max_actors:8 ())
    (fun loads ->
      let n = List.length loads in
      n = 0
      ||
      let p, mu, tau = arrays_of loads in
      let s = Kernel.scratch () in
      Kernel.reserve_group s n;
      let out = Array.make n 0. in
      let ok = ref true in
      let check expected t =
        if not (Float.equal expected out.(t)) then ok := false
      in
      Kernel.wc_into ~tau ~off:0 ~n ~out;
      List.iteri (fun t _ -> check (Wcrt.waiting_time (others loads t)) t) loads;
      List.iter
        (fun order ->
          Kernel.order_into s ~order ~p ~mu ~off:0 ~n ~out;
          List.iteri
            (fun t _ -> check (Approx.waiting_time ~order (others loads t)) t)
            loads)
        [ 2; 3; 4; 6 ];
      Kernel.exact_into s ~p ~mu ~off:0 ~n ~out;
      List.iteri (fun t _ -> check (Exact.waiting_time (others loads t)) t) loads;
      Kernel.comp_into s ~p ~mu ~off:0 ~n ~out;
      List.iteri (fun t _ -> check (Compose.waiting_time (others loads t)) t) loads;
      !ok)

(* ------------------------------------------------------------------ *)
(* Incremental group state *)

let fill_group loads =
  let g = Kernel.Group.create () in
  List.iteri
    (fun i (l : Prob.t) -> Kernel.Group.add g ~id:i ~p:l.p ~mu:l.mu ~tau:l.tau)
    loads;
  g

let prop_group_incremental_updates =
  (* k random single-member changes via the O(n) deconvolve/refold delta must
     leave the same basis as the O(n²) rebuild. *)
  Fixtures.qcheck_case "incremental updates = recompute"
    QCheck2.Gen.(pair (Fixtures.load_gen ~max_actors:8 ()) (int_range 0 1_000_000))
    (fun (loads, salt) ->
      let n = List.length loads in
      n = 0
      ||
      let g = fill_group loads in
      let rng = Sdfgen.Rng.create salt in
      for _ = 1 to 6 do
        Kernel.Group.update g ~id:(Sdfgen.Rng.int rng n)
          ~p:(Sdfgen.Rng.float rng 1.)
          ~mu:(1. +. Sdfgen.Rng.float rng 50.)
          ~tau:(2. +. Sdfgen.Rng.float rng 100.)
      done;
      let incremental = Array.sub (Kernel.Group.es g) 0 (n + 1) in
      Kernel.Group.recompute g;
      let rebuilt = Array.sub (Kernel.Group.es g) 0 (n + 1) in
      Array.for_all2 (fun a b -> Fixtures.float_eq ~eps:1e-9 a b) incremental rebuilt)

let prop_group_remove =
  (* ⊖ half the members: waits must match a group built from the survivors. *)
  Fixtures.qcheck_case "remove = rebuild from survivors"
    (Fixtures.load_gen ~max_actors:8 ())
    (fun loads ->
      let n = List.length loads in
      n < 2
      ||
      let g = fill_group loads in
      List.iteri
        (fun i _ -> if i mod 2 = 1 then Kernel.Group.remove g ~id:i)
        loads;
      let survivors = List.filteri (fun i _ -> i mod 2 = 0) loads in
      let fresh = Kernel.Group.create () in
      List.iteri
        (fun k (l : Prob.t) ->
          Kernel.Group.add fresh ~id:(2 * k) ~p:l.p ~mu:l.mu ~tau:l.tau)
        survivors;
      let close a b = Fixtures.float_eq ~eps:1e-9 a b in
      Kernel.Group.size g = List.length survivors
      && close
           (Kernel.Group.exact_waiting g ~excluding:None)
           (Kernel.Group.exact_waiting fresh ~excluding:None)
      && close
           (Kernel.Group.order_waiting g ~order:2 ~excluding:None)
           (Kernel.Group.order_waiting fresh ~order:2 ~excluding:None)
      && close
           (Kernel.Group.wc_waiting g ~excluding:None)
           (Kernel.Group.wc_waiting fresh ~excluding:None))

let prop_group_waiting_matches_lists =
  (* Queries from the maintained basis agree with the list kernels, both for
     an admitted member (excluding itself) and for an outside observer. *)
  Fixtures.qcheck_case "group waits = list kernels"
    (Fixtures.load_gen ~max_actors:8 ())
    (fun loads ->
      let n = List.length loads in
      n = 0
      ||
      let g = fill_group loads in
      let close a b = Fixtures.float_eq ~eps:1e-9 a b in
      let per_member =
        List.for_all
          (fun t ->
            let rest = others loads t in
            let excluding = Some t in
            close (Kernel.Group.exact_waiting g ~excluding) (Exact.waiting_time rest)
            && close
                 (Kernel.Group.order_waiting g ~order:4 ~excluding)
                 (Approx.waiting_time ~order:4 rest)
            && close (Kernel.Group.wc_waiting g ~excluding) (Wcrt.waiting_time rest))
          (List.init n Fun.id)
      in
      per_member
      && close (Kernel.Group.exact_waiting g ~excluding:None) (Exact.waiting_time loads)
      && close (Kernel.Group.wc_waiting g ~excluding:None) (Wcrt.waiting_time loads))

let test_group_errors () =
  let g = Kernel.Group.create () in
  Kernel.Group.add g ~id:1 ~p:0.5 ~mu:10. ~tau:20.;
  (match Kernel.Group.add g ~id:1 ~p:0.2 ~mu:1. ~tau:2. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate id accepted");
  (match Kernel.Group.add g ~id:2 ~p:1.5 ~mu:1. ~tau:2. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "p > 1 accepted");
  (match Kernel.Group.remove g ~id:9 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "unknown id removed");
  (match Kernel.Group.order_waiting g ~order:1 ~excluding:None with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "order 1 accepted");
  (match Kernel.Group.exact_waiting g ~excluding:(Some 9) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown exclusion accepted");
  Alcotest.(check bool) "member" true (Kernel.Group.mem g 1);
  Kernel.Group.remove g ~id:1;
  Alcotest.(check int) "emptied" 0 (Kernel.Group.size g);
  Fixtures.check_float "empty wait" 0. (Kernel.Group.exact_waiting g ~excluding:None)

(* ------------------------------------------------------------------ *)
(* Flat maximum cycle ratio *)

let test_graph_validation () =
  (match Kernel.graph ~nnodes:2 ~name:"g" [| (0, 1, 0, -1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative delay accepted");
  (match Kernel.graph ~nnodes:2 ~name:"g" [| (0, 5, 0, 1) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "endpoint out of range accepted");
  let s = Kernel.scratch () in
  let out = [| 0. |] in
  let dag = Kernel.graph ~nnodes:2 ~name:"dag" [| (0, 1, 0, 1) |] in
  (match Kernel.period_into s dag ~exec:[| 1.; 2. |] ~exec_off:0 ~out ~out_idx:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "acyclic graph accepted");
  let zd = Kernel.graph ~nnodes:2 ~name:"zd" [| (0, 1, 0, 0); (1, 0, 1, 0) |] in
  (match Kernel.period_into s zd ~exec:[| 1.; 2. |] ~exec_off:0 ~out ~out_idx:0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "zero-delay cycle accepted")

let test_period_known_value () =
  (* Two-node ring, one token per edge: period = (3 + 5) / 2. *)
  let s = Kernel.scratch () in
  let g = Kernel.graph ~nnodes:2 ~name:"ring" [| (0, 1, 0, 1); (1, 0, 1, 1) |] in
  let out = [| 0. |] in
  Kernel.period_into s g ~exec:[| 3.; 5. |] ~exec_off:0 ~out ~out_idx:0;
  Fixtures.check_float ~eps:1e-8 "ring period" 4. out.(0);
  (* A second cycle through node 2 dominating the ratio: (3 + 9) / 1 = 12. *)
  let g2 =
    Kernel.graph ~nnodes:3 ~name:"two-cycles"
      [| (0, 1, 0, 1); (1, 0, 1, 1); (0, 2, 0, 0); (2, 0, 2, 1) |]
  in
  Kernel.period_into s g2 ~exec:[| 3.; 5.; 9. |] ~exec_off:0 ~out ~out_idx:0;
  Fixtures.check_float ~eps:1e-8 "critical cycle" 12. out.(0)

(* Past ~4.5e6 the ulp of a period exceeds the search's 1e-9 tolerance, so
   the bisection must stop once its midpoint rounds onto a bound, as
   Sdf.Mcm's does (at 1e7 the kernel used to loop for ever), and land on
   the same bits. *)
let test_period_huge_weights () =
  let s = Kernel.scratch () in
  let out = [| 0. |] in
  let scaled tau g =
    let top = Array.fold_left Float.max 0. (Sdf.Graph.exec_times g) in
    Sdf.Graph.with_exec_times g
      (Array.map (fun t -> t /. top *. tau) (Sdf.Graph.exec_times g))
  in
  List.iter
    (fun tau ->
      List.iter
        (fun g ->
          let g = scaled tau g in
          Kernel.period_into s (Analysis.kernel_graph g)
            ~exec:(Sdf.Graph.exec_times g) ~exec_off:0 ~out ~out_idx:0;
          let expected = Sdf.Hsdf.period g in
          if Int64.bits_of_float expected <> Int64.bits_of_float out.(0) then
            Alcotest.failf "%s at %g: kernel %.17g, Sdf.Mcm %.17g"
              g.Sdf.Graph.name tau out.(0) expected)
        [ Fixtures.single (); Fixtures.pipeline (); Fixtures.graph_a () ])
    [ 1e6; 1e7; 1e12; 1e300 ]

(* A non-finite weight is refused with Sdf.Mcm's message, not reported as a
   cycle-free graph. *)
let test_period_non_finite () =
  let s = Kernel.scratch () in
  let out = [| 0. |] in
  let g = Kernel.graph ~nnodes:2 ~name:"ring" [| (0, 1, 0, 1); (1, 0, 1, 1) |] in
  List.iter
    (fun (w, message) ->
      let error f = match f () with _ -> "no error" | exception Invalid_argument m -> m in
      let reference =
        error (fun () ->
            Sdf.Mcm.max_cycle_ratio ~nodes:2 [| (0, 1, 3., 1); (1, 0, w, 1) |])
      in
      Alcotest.(check string) "Sdf.Mcm's message" message reference;
      Alcotest.(check string) "kernel message" message
        (error (fun () ->
             Kernel.period_into s g ~exec:[| 3.; w |] ~exec_off:0 ~out ~out_idx:0)))
    [
      (infinity, "Sdf.Mcm: non-finite edge weight inf");
      (nan, "Sdf.Mcm: non-finite edge weight nan");
      (neg_infinity, "Sdf.Mcm: negative weight or delay");
    ]

(* ------------------------------------------------------------------ *)
(* Engine equivalence and batching *)

let small_workload () = Exp.Workload.make ~seed:11 ~num_apps:4 ~procs:3 ()

let engine_estimators =
  [
    Analysis.Worst_case;
    Analysis.Order 2;
    Analysis.Order 3;
    Analysis.Order 4;
    Analysis.Composability;
    Analysis.Exact;
  ]

let check_estimates_equal what (a : Analysis.estimate) (b : Analysis.estimate) =
  if not (Float.equal a.period b.period) then
    Alcotest.failf "%s: period %.17g <> %.17g" what a.period b.period;
  if not (Array.for_all2 Float.equal a.waiting_times b.waiting_times) then
    Alcotest.failf "%s: waiting times differ" what;
  if not (Array.for_all2 Float.equal a.response_times b.response_times) then
    Alcotest.failf "%s: response times differ" what

let test_engine_bit_identity () =
  (* The kernel engine must return bit-identical estimates to the list-based
     reference on every use-case and estimator — this is what lets it sit
     under the golden pins and the serve caches without re-pinning them, and
     it exercises the certified probe-skipping of the period search. *)
  let w = small_workload () in
  let caches = Array.map Analysis.prepare w.apps in
  List.iter
    (fun uc ->
      let pairs =
        List.map (fun i -> (w.apps.(i), caches.(i))) (Usecase.to_list uc)
      in
      List.iter
        (fun est ->
          let name = Analysis.estimator_name est in
          List.iter2
            (check_estimates_equal name)
            (Analysis.estimate_prepared est pairs)
            (Analysis.estimate_prepared_reference est pairs))
        engine_estimators)
    (Usecase.all ~napps:(Array.length w.apps))

let test_batch_bit_identity () =
  let w = small_workload () in
  let caches = Array.map Analysis.prepare w.apps in
  let prepared = Analysis.prepare_workload ~caches w.apps in
  let ucs = Usecase.all ~napps:(Array.length w.apps) in
  List.iter
    (fun est ->
      let name = Analysis.estimator_name est in
      List.iter2
        (fun uc batched ->
          let pairs =
            List.map (fun i -> (w.apps.(i), caches.(i))) (Usecase.to_list uc)
          in
          List.iter2
            (check_estimates_equal name)
            batched
            (Analysis.estimate_prepared est pairs))
        ucs
        (Analysis.estimate_batch est prepared ucs))
    engine_estimators

let test_periods_into_matches () =
  let w = small_workload () in
  let caches = Array.map Analysis.prepare w.apps in
  let prepared = Analysis.prepare_workload ~caches w.apps in
  let ws = Analysis.workspace () in
  let out = Array.make (Array.length w.apps) 0. in
  List.iter
    (fun uc ->
      List.iter
        (fun est ->
          let active =
            Analysis.estimate_periods_into ws est prepared ~usecase:uc ~out
          in
          let pairs =
            List.map (fun i -> (w.apps.(i), caches.(i))) (Usecase.to_list uc)
          in
          let reference = Analysis.estimate_prepared_reference est pairs in
          Alcotest.(check int) "active count" (List.length reference) active;
          List.iteri
            (fun k (r : Analysis.estimate) ->
              if not (Float.equal r.period out.(k)) then
                Alcotest.failf "period %d: %.17g <> %.17g" k r.period out.(k))
            reference)
        engine_estimators)
    (Usecase.all ~napps:(Array.length w.apps))

let test_warm_path_allocates_nothing () =
  (* The allocation budget: after warm-up, a full pass of
     estimate_periods_into over every use-case must allocate zero minor-heap
     words.  Both deltas below include the same constant cost (the boxed
     float Gc.minor_words itself returns); the second window runs twice the
     passes, so any per-call allocation would make it strictly larger. *)
  let w = small_workload () in
  let prepared = Analysis.prepare_workload w.apps in
  let ws = Analysis.workspace () in
  let ucs = Array.of_list (Usecase.all ~napps:(Array.length w.apps)) in
  let out = Array.make (Array.length w.apps) 0. in
  let est = Analysis.Order 4 in
  let pass n =
    for _ = 1 to n do
      for u = 0 to Array.length ucs - 1 do
        ignore (Analysis.estimate_periods_into ws est prepared ~usecase:ucs.(u) ~out)
      done
    done
  in
  pass 2;
  (* warm-up: buffers reach their high-water mark *)
  let w0 = Gc.minor_words () in
  pass 1;
  let w1 = Gc.minor_words () in
  pass 2;
  let w2 = Gc.minor_words () in
  let single = w1 -. w0 and double = w2 -. w1 in
  if double <> single then
    Alcotest.failf "warm path allocates: %g minor words over one pass, %g over two"
      single double

let suite =
  [
    prop_evaluators_bit_match;
    prop_group_incremental_updates;
    prop_group_remove;
    prop_group_waiting_matches_lists;
    Alcotest.test_case "group errors" `Quick test_group_errors;
    Alcotest.test_case "graph validation" `Quick test_graph_validation;
    Alcotest.test_case "period known values" `Quick test_period_known_value;
    Alcotest.test_case "period huge weights" `Quick test_period_huge_weights;
    Alcotest.test_case "period non-finite weights" `Quick test_period_non_finite;
    Alcotest.test_case "engine bit-identity" `Quick test_engine_bit_identity;
    Alcotest.test_case "batch bit-identity" `Quick test_batch_bit_identity;
    Alcotest.test_case "periods-into agreement" `Quick test_periods_into_matches;
    Alcotest.test_case "warm path allocation budget" `Quick test_warm_path_allocates_nothing;
  ]
