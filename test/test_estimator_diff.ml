(* Differential test of the estimator entry points against the list-based
   reference in lib/check: [Analysis.estimate] (with fixed-point
   iterations), [Analysis.estimate_calibrated] and [Explain.compute]/[verify]
   all run on the kernel, and each must reproduce [Check.Reference] bit for
   bit — periods, waiting times, response times, and Explain's contender
   waits and truncation brackets — under every estimator. *)

open Contention
module R = Check.Reference

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_float what kernel oracle =
  if not (same kernel oracle) then
    Alcotest.failf "%s: kernel %.17g, list oracle %.17g" what kernel oracle

let check_estimates what (ks : Analysis.estimate list) (rs : Analysis.estimate list) =
  if List.length ks <> List.length rs then Alcotest.failf "%s: arity" what;
  List.iter2
    (fun (k : Analysis.estimate) (r : Analysis.estimate) ->
      let what = what ^ " " ^ k.for_app.graph.Sdf.Graph.name in
      check_float (what ^ ": period") k.period r.period;
      Array.iteri
        (fun i w -> check_float (Printf.sprintf "%s: wait %d" what i) w r.waiting_times.(i))
        k.waiting_times;
      Array.iteri
        (fun i w ->
          check_float (Printf.sprintf "%s: response %d" what i) w r.response_times.(i))
        k.response_times)
    ks rs

let estimators =
  [
    Analysis.Worst_case;
    Analysis.Order 2;
    Analysis.Order 3;
    Analysis.Order 4;
    Analysis.Composability;
    Analysis.Exact;
  ]

let check_explain est apps (reference : Analysis.estimate list) =
  let name = Analysis.estimator_name est in
  let ex = Explain.compute est apps in
  (match Explain.verify ex apps with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: verify: %s" name msg);
  List.iter2
    (fun (x : Explain.app) (r : Analysis.estimate) ->
      let what = name ^ " explain " ^ x.x_app in
      check_float (what ^ ": period") x.x_period r.period;
      List.iter
        (fun (a : Explain.actor) ->
          let loads =
            List.map
              (fun (c : Explain.contender) ->
                Prob.make ~p:c.c_p ~mu:c.c_mu ~tau:c.c_tau)
              a.a_contenders
          in
          let where = Printf.sprintf "%s actor %d" what a.a_index in
          check_float (where ^ ": wait") a.a_wait (R.waiting_time est loads);
          check_float (where ^ ": wait in the pass") a.a_wait
            r.waiting_times.(a.a_index);
          check_float (where ^ ": response") a.a_response
            r.response_times.(a.a_index);
          match (est, a.a_sandwich) with
          | Analysis.Order m, Some s ->
              let other = R.Approx.waiting_time ~order:(m + 1) loads in
              let lower, upper = if m mod 2 = 0 then (other, a.a_wait) else (a.a_wait, other) in
              check_float (where ^ ": sandwich lower") s.s_lower lower;
              check_float (where ^ ": sandwich upper") s.s_upper upper
          | Analysis.Order _, None -> Alcotest.failf "%s: no sandwich" where
          | _ -> ())
        x.x_actors)
    ex.apps reference

let check_population apps =
  List.iter
    (fun est ->
      let name = Analysis.estimator_name est in
      List.iter
        (fun iterations ->
          check_estimates
            (Printf.sprintf "%s x%d" name iterations)
            (Analysis.estimate ~iterations est apps)
            (R.estimate ~iterations est apps))
        [ 1; 2; 3 ];
      let measured =
        List.mapi
          (fun i (a : Analysis.app) ->
            (a, a.isolation_period *. (1.2 +. (0.1 *. float_of_int i))))
          apps
      in
      check_estimates (name ^ " calibrated")
        (Analysis.estimate_calibrated est measured)
        (R.estimate_calibrated est measured);
      check_explain est apps (R.estimate est apps))
    estimators;
  true

(* ------------------------------------------------------------------ *)
(* Generated populations *)

let procs = 3

let graph_params =
  {
    Sdfgen.Generator.default_params with
    actors_min = 2;
    actors_max = 5;
    exec_min = 1;
    exec_max = 30;
  }

let app_of i seed =
  let g =
    Sdfgen.Generator.generate ~params:graph_params (Sdfgen.Rng.create seed)
      ~name:(Printf.sprintf "G%d" i)
  in
  Analysis.app g ~mapping:(Mapping.modulo ~procs g)

let population_gen = QCheck2.Gen.(list_size (int_range 1 5) (int_range 0 1_000_000))

let prop_populations =
  Fixtures.qcheck_case ~count:30 "entry points = list oracle" population_gen
    (fun seeds -> check_population (List.mapi app_of seeds))

(* A single-actor self-loop has utilisation 1 at its isolation period: a
   saturated (P = 1) actor, whose share cannot be deconvolved from its
   group's basis, so the guarded evaluators refold the others instead. *)
let prop_saturated =
  Fixtures.qcheck_case ~count:15 "saturated actor = list oracle" population_gen
    (fun seeds ->
      let saturated =
        Analysis.app (Fixtures.single ~tau:9. ()) ~period:9. ~mapping:[| 0 |]
      in
      assert ((Analysis.loads saturated).(0).Prob.p >= 1.);
      check_population (saturated :: List.mapi app_of seeds))

let test_paper_workload () =
  (* Four of the paper workload's applications on its ten processors. *)
  let w = Exp.Workload.make ~num_apps:4 () in
  ignore (check_population (Array.to_list w.apps))

(* ------------------------------------------------------------------ *)
(* The sweep's exact check ([contention sweep --exact-check]) *)

let test_sweep_exact_check () =
  let w = Exp.Workload.make ~seed:3 ~num_apps:4 ~procs:4 () in
  let sweep = Exp.Sweep.run ~horizon:20_000. ~jobs:1 w in
  R.check_sweep sweep;
  (* One estimate of the full use-case's last application, perturbed by
     1e-6 relative — well past the check's 1e-9 tolerance. *)
  let est = Analysis.Order 2 in
  let last = List.nth sweep.observations (List.length sweep.observations - 1) in
  let original = List.assoc est last.estimated_periods in
  let perturbed = original *. (1. +. 1e-6) in
  let observations =
    List.map
      (fun (o : Exp.Sweep.observation) ->
        if o == last then
          {
            o with
            estimated_periods =
              List.map
                (fun (e, p) -> if e = est then (e, perturbed) else (e, p))
                o.estimated_periods;
          }
        else o)
      sweep.observations
  in
  let expected =
    Printf.sprintf
      "Contention.Analysis: kernel/reference divergence on app %S, estimator \
       second-order: period (%.17g vs %.17g)"
      w.apps.(last.app_index).graph.Sdf.Graph.name perturbed original
  in
  match R.check_sweep { sweep with observations } with
  | () -> Alcotest.fail "perturbed sweep passed the exact check"
  | exception Failure msg -> Alcotest.(check string) "divergence message" expected msg

let suite =
  [
    Alcotest.test_case "sweep exact check" `Quick test_sweep_exact_check;
    prop_populations;
    prop_saturated;
    Alcotest.test_case "paper workload = list oracle" `Quick test_paper_workload;
  ]
