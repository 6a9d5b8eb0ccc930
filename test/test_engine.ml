open Desim

let dedicated graph =
  { Engine.graph; mapping = Contention.Mapping.dedicated graph }

let test_isolated_matches_statespace () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~procs:3 [| dedicated g |] in
  Fixtures.check_float ~eps:1e-6 "avg period" 300. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-6 "max period" 300. results.(0).Engine.max_period;
  Fixtures.check_float ~eps:1e-6 "min period" 300. results.(0).Engine.min_period

let test_paper_shared_period () =
  (* Section 3: A and B share Proc_i for actor i; in practice the period
     stays 300 (the probabilistic estimate of 359 is conservative). *)
  let apps =
    [|
      { Engine.graph = Fixtures.graph_a (); mapping = [| 0; 1; 2 |] };
      { Engine.graph = Fixtures.graph_b (); mapping = [| 0; 1; 2 |] };
    |]
  in
  let results, _ = Engine.run ~procs:3 apps in
  Fixtures.check_float ~eps:1e-6 "Per(A) shared" 300. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-6 "Per(B) shared" 300. results.(1).Engine.avg_period

let test_full_contention_on_one_proc () =
  (* Two independent single-actor apps on one processor: each actor wants to
     run 7 of every 7 time units; sharing doubles both periods. *)
  let app name =
    { Engine.graph =
        Sdf.Graph.create ~name ~actors:[| (name, 7.) |] ~channels:[| (0, 0, 1, 1, 1) |];
      mapping = [| 0 |] }
  in
  let results, stats = Engine.run ~horizon:70_000. ~procs:1 [| app "x"; app "y" |] in
  Fixtures.check_float ~eps:1e-3 "x period doubles" 14. results.(0).Engine.avg_period;
  Fixtures.check_float ~eps:1e-3 "y period doubles" 14. results.(1).Engine.avg_period;
  (* The processor is saturated. *)
  let util = Engine.utilisation stats in
  Alcotest.(check bool) "utilisation ~1" true (util.(0) > 0.99 && util.(0) <= 1.0001)

let test_horizon_and_stats () =
  let g = Fixtures.graph_a () in
  let results, stats = Engine.run ~horizon:3000. ~warmup_iterations:0 ~procs:3 [| dedicated g |] in
  Alcotest.(check int) "iterations by horizon" 10 results.(0).Engine.iterations;
  Alcotest.(check bool) "final time within horizon" true (stats.Engine.final_time <= 3000.);
  (* One iteration = 4 firings (q = [1;2;1]). *)
  Alcotest.(check bool) "firings consistent" true (stats.Engine.total_firings >= 40)

let test_busy_time_accounting () =
  let g = Fixtures.graph_a () in
  let results, stats = Engine.run ~horizon:30_000. ~procs:3 [| dedicated g |] in
  (* Busy time per proc equals firings x tau; proc 1 runs a1 twice per
     iteration at tau 50, procs 0 and 2 run 100 per iteration. *)
  let busy = results.(0).Engine.busy_time in
  Alcotest.(check int) "busy array length" 3 (Array.length busy);
  Array.iteri
    (fun p b -> Fixtures.check_float ~eps:1e-9 "app busy = proc busy" stats.Engine.proc_busy.(p) b)
    busy;
  (* Every iteration contributes 100 to proc 0 and 2x50 to proc 1. *)
  Alcotest.(check bool) "proc0 ~ proc1 busy" true
    (Fixtures.float_eq ~eps:0.05 busy.(0) busy.(1))

let test_warmup_excluded () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~horizon:10_000. ~warmup_iterations:5 ~procs:3 [| dedicated g |] in
  (* 33 iterations fit in 10000; 5 are warm-up, stats cover the rest. *)
  Alcotest.(check bool) "iterations counted" true (results.(0).Engine.iterations >= 30);
  Fixtures.check_float ~eps:1e-6 "avg stable" 300. results.(0).Engine.avg_period

let test_too_short_horizon_gives_nan () =
  let g = Fixtures.graph_a () in
  let results, _ = Engine.run ~horizon:100. ~procs:3 [| dedicated g |] in
  Alcotest.(check bool) "nan avg" true (Float.is_nan results.(0).Engine.avg_period)

let test_validation () =
  let g = Fixtures.graph_a () in
  (match Engine.run ~procs:3 [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty app set accepted");
  (match Engine.run ~procs:2 [| dedicated g |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mapping outside procs accepted");
  match Engine.run ~procs:3 [| { Engine.graph = g; mapping = [| 0 |] } |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "short mapping accepted"

let test_events_emitted () =
  let g = Fixtures.pipeline () in
  let starts = ref 0 and finishes = ref 0 in
  let on_event = function
    | Engine.Start _ -> incr starts
    | Engine.Finish _ -> incr finishes
  in
  let _ = Engine.run ~horizon:80. ~on_event ~procs:2 [| dedicated g |] in
  Alcotest.(check bool) "starts happened" true (!starts > 0);
  (* All but possibly the in-flight firing finish. *)
  Alcotest.(check bool) "finishes close to starts" true (!starts - !finishes <= 2)

let test_bad_firing_time_rejected () =
  (* NaN would break the heap's (time, seq) order and +infinity would end
     the run early without a word; both are refused like negative times. *)
  let apps = [| dedicated (Fixtures.graph_a ()) |] in
  List.iter
    (fun (what, t) ->
      match Engine.run ~horizon:1000. ~firing_time:(fun ~app:_ ~actor:_ -> t) ~procs:3 apps with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "firing_time %s accepted" what)
    [ ("NaN", Float.nan); ("+infinity", Float.infinity); ("negative", -1.) ]

let test_firing_loop_allocates_nothing () =
  (* The allocation budget: with [on_event] and [firing_time] absent, a run
     allocates only its O(actors + channels) set-up, so doubling the horizon
     must leave the minor-word count unchanged while the firings grow.  Both
     windows include the same constant cost (the boxed float Gc.minor_words
     itself returns). *)
  let graphs =
    Sdfgen.Generator.generate_many ~seed:11 3
      ~params:{ Sdfgen.Generator.default_params with actors_min = 4; actors_max = 6 }
  in
  let apps =
    Array.map (fun g -> { Engine.graph = g; mapping = Contention.Mapping.modulo ~procs:2 g }) graphs
  in
  let run horizon =
    let w0 = Gc.minor_words () in
    let _, stats = Engine.run ~horizon ~procs:2 apps in
    (Gc.minor_words () -. w0, stats.Engine.total_firings)
  in
  let horizon = 500_000. in
  ignore (run horizon);
  let single, f1 = run horizon in
  let double, f2 = run (2. *. horizon) in
  if f2 - f1 <= 10_000 then Alcotest.failf "too few extra firings: %d -> %d" f1 f2;
  if double -. single >= 8. then
    Alcotest.failf "firing loop allocates: %g minor words at %d firings, %g at %d" single f1
      double f2

(* Contention can only hurt: the simulated shared period of an app is at
   least (up to measurement noise) its isolation period. *)
let prop_contention_monotone =
  Fixtures.qcheck_case ~count:40 "shared period >= isolation"
    QCheck2.Gen.(pair Fixtures.graph_gen Fixtures.graph_gen)
    (fun (g1, g2) ->
      let iso = Sdf.Statespace.period_exn g1 in
      let procs = 2 in
      let apps =
        [|
          { Engine.graph = g1; mapping = Contention.Mapping.modulo ~procs g1 };
          { Engine.graph = Sdf.Graph.create ~name:"H"
              ~actors:(Array.map (fun (a : Sdf.Graph.actor) -> (a.name ^ "h", a.exec_time)) g2.actors)
              ~channels:(Array.map (fun (c : Sdf.Graph.channel) ->
                (c.src, c.dst, c.produce, c.consume, c.tokens)) g2.channels);
            mapping = Contention.Mapping.modulo ~procs g2 };
        |]
      in
      let results, _ = Engine.run ~horizon:100_000. ~procs apps in
      let shared = results.(0).Engine.avg_period in
      Float.is_nan shared || shared +. 1e-6 >= iso -. 1e-6)

let suite =
  [
    Alcotest.test_case "isolated matches statespace" `Quick test_isolated_matches_statespace;
    Alcotest.test_case "paper shared period" `Quick test_paper_shared_period;
    Alcotest.test_case "saturated processor" `Quick test_full_contention_on_one_proc;
    Alcotest.test_case "horizon and stats" `Quick test_horizon_and_stats;
    Alcotest.test_case "busy time accounting" `Quick test_busy_time_accounting;
    Alcotest.test_case "warmup excluded" `Quick test_warmup_excluded;
    Alcotest.test_case "short horizon -> nan" `Quick test_too_short_horizon_gives_nan;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "events emitted" `Quick test_events_emitted;
    Alcotest.test_case "bad firing_time rejected" `Quick test_bad_firing_time_rejected;
    Alcotest.test_case "firing loop allocation budget" `Quick test_firing_loop_allocates_nothing;
    prop_contention_monotone;
  ]
