open Desim

let traced_run ?firing_time apps ~procs ~horizon =
  let trace = Trace.create () in
  let results, stats =
    Engine.run ~horizon ~on_event:(Trace.on_event trace) ?firing_time ~procs apps
  in
  (trace, results, stats)

let test_records_pair_up () =
  let g = Fixtures.pipeline () in
  let trace, _, stats =
    traced_run [| { Engine.graph = g; mapping = [| 0; 1 |] } |] ~procs:2 ~horizon:80.
  in
  (* Every completed firing is recorded with start < finish. *)
  Alcotest.(check int) "one record per firing" stats.Engine.total_firings
    (Trace.num_records trace);
  List.iter
    (fun (r : Trace.record) ->
      Alcotest.(check bool) "positive duration" true (r.finish_time > r.start_time))
    (Trace.records trace)

let test_service_durations_match_exec_times () =
  let g = Fixtures.graph_a () in
  let trace, _, _ =
    traced_run [| { Engine.graph = g; mapping = [| 0; 1; 2 |] } |] ~procs:3 ~horizon:3000.
  in
  List.iter
    (fun (r : Trace.record) ->
      Fixtures.check_float "duration = tau"
        (Sdf.Graph.actor g r.actor).exec_time
        (r.finish_time -. r.start_time))
    (Trace.records trace)

let test_actor_stats () =
  let g = Fixtures.graph_a () in
  let trace, _, _ =
    traced_run [| { Engine.graph = g; mapping = [| 0; 1; 2 |] } |] ~procs:3 ~horizon:3000.
  in
  let s = Trace.actor_stats trace ~app:0 ~actor:0 in
  (* 10 iterations fit in 3000; q(a0) = 1, tau = 100. *)
  Alcotest.(check bool) "about 10 firings" true (s.firings >= 9 && s.firings <= 11);
  Fixtures.check_float "mean service" 100. s.mean_service;
  (* a0 fires once per 300: gap = 200. *)
  Fixtures.check_float "mean gap" 200. s.mean_gap;
  Fixtures.check_float "busy" (100. *. float_of_int s.firings) s.total_busy;
  match Trace.actor_stats trace ~app:3 ~actor:0 with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "stats for unknown app"

let test_proc_timeline_no_overlap () =
  (* Two apps contending on shared processors: services on one processor
     never overlap (non-preemptive correctness, observed from the trace). *)
  let a = Fixtures.graph_a () and b = Fixtures.graph_b () in
  let trace, _, _ =
    traced_run
      [|
        { Engine.graph = a; mapping = [| 0; 1; 2 |] };
        { Engine.graph = b; mapping = [| 0; 1; 2 |] };
      |]
      ~procs:3 ~horizon:20_000.
  in
  for proc = 0 to 2 do
    let timeline = Trace.proc_timeline trace ~proc in
    Alcotest.(check bool) "some work" true (List.length timeline > 0);
    let rec check = function
      | (r1 : Trace.record) :: (r2 :: _ as rest) ->
          Alcotest.(check bool) "no overlap" true (r2.start_time >= r1.finish_time -. 1e-9);
          check rest
      | [ _ ] | [] -> ()
    in
    check timeline
  done

let test_waiting_observed_under_contention () =
  (* The trace lets us measure actual waiting: on the two-ticker node, the
     second arrival's gap exceeds its isolation gap. *)
  let mk name =
    Sdf.Graph.create ~name
      ~actors:[| (name ^ "w", 5.); (name ^ "p", 5.) |]
      ~channels:[| (0, 1, 1, 1, 0); (1, 0, 1, 1, 1) |]
  in
  let trace, _, _ =
    traced_run
      [|
        { Engine.graph = mk "X"; mapping = [| 0; 1 |] };
        { Engine.graph = mk "Y"; mapping = [| 0; 2 |] };
        { Engine.graph = mk "Z"; mapping = [| 0; 3 |] };
      |]
      ~procs:4 ~horizon:30_000.
  in
  (* Each worker is served once per 15 time units (saturated node), so the
     gap between its services is 15 - 5 = 10, not the isolation 5. *)
  let s = Trace.actor_stats trace ~app:0 ~actor:0 in
  Fixtures.check_float ~eps:0.02 "contended gap" 10. s.mean_gap

let test_csv () =
  let g = Fixtures.pipeline () in
  let trace, _, _ =
    traced_run [| { Engine.graph = g; mapping = [| 0; 1 |] } |] ~procs:2 ~horizon:40.
  in
  let csv = Trace.to_csv trace in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + records" (Trace.num_records trace + 1) (List.length lines);
  match lines with
  | header :: _ -> Alcotest.(check string) "header" "app,actor,proc,start,finish" header
  | [] -> Alcotest.fail "empty csv"

let test_short_runs_record () =
  (* A pipeline traced for 40 time units records firings; so does a run of
     30 self-looped apps sharing one processor, one record per firing. *)
  let g = Fixtures.pipeline () in
  let trace, _, _ =
    traced_run [| { Engine.graph = g; mapping = [| 0; 1 |] } |] ~procs:2 ~horizon:40.
  in
  Alcotest.(check bool) "pipeline records" true (Trace.num_records trace > 0);
  let apps =
    Array.init 30 (fun i ->
        {
          Engine.graph =
            Sdf.Graph.create ~name:(Printf.sprintf "g%d" i)
              ~actors:[| (Printf.sprintf "s%d" i, 1.) |]
              ~channels:[| (0, 0, 1, 1, 1) |];
          mapping = [| 0 |];
        })
  in
  let trace, _, stats = traced_run apps ~procs:1 ~horizon:10. in
  Alcotest.(check bool) "shared processor records" true (Trace.num_records trace > 0);
  Alcotest.(check int) "one record per firing" stats.Engine.total_firings
    (Trace.num_records trace)

let suite =
  [
    Alcotest.test_case "records pair up" `Quick test_records_pair_up;
    Alcotest.test_case "durations = exec times" `Quick test_service_durations_match_exec_times;
    Alcotest.test_case "actor stats" `Quick test_actor_stats;
    Alcotest.test_case "proc timeline no overlap" `Quick test_proc_timeline_no_overlap;
    Alcotest.test_case "observed waiting" `Quick test_waiting_observed_under_contention;
    Alcotest.test_case "csv" `Quick test_csv;
    Alcotest.test_case "short runs record firings" `Quick test_short_runs_record;
  ]
