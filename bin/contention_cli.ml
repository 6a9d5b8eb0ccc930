(* `contention` — command-line front end to the library.

   Subcommands:
     generate    random SDFG workloads (SDF3 substitute); DOT export, --save
     analyze     estimate use-case periods with a chosen estimator
     simulate    discrete-event simulation of a use-case
     experiment  reproduce the paper's Figure 5, Table 1, Figure 6 and timing
     sweep       use-case sweep with accuracy table; --trace for Perfetto
     export      the same evaluation data as CSV files
     inspect     periods, latency, buffer bounds and text export of one graph
     report      estimated vs simulated periods + processor utilisation
     sensitivity leave-one-out interference ranking
     check       differential fuzzing: estimators vs simulator vs invariants
     serve       online resource-manager daemon (TCP / Unix socket)
     query       one-shot client for a running daemon
     stats       daemon statistics; --prometheus for a scrape-ready text *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let seed_arg =
  let doc = "Random seed for the workload generator." in
  Arg.(value & opt int 2007 & info [ "seed" ] ~docv:"SEED" ~doc)

let num_apps_arg =
  let doc = "Number of applications to generate." in
  Arg.(value & opt int 10 & info [ "apps" ] ~docv:"N" ~doc)

let procs_arg =
  let doc = "Number of processors." in
  Arg.(value & opt int 10 & info [ "procs" ] ~docv:"P" ~doc)

(* The simulator refuses a NaN, infinite or negative horizon: say so before
   any work starts. *)
let checked_horizon flag h =
  if Float.is_finite h && h >= 0. then h
  else begin
    Printf.eprintf "contention: %s %g is not finite and non-negative\n" flag h;
    exit 2
  end

let horizon_arg =
  let doc = "Simulation horizon in time units (the paper used 500000)." in
  Term.(
    const (checked_horizon "--horizon")
    $ Arg.(value & opt float 500_000. & info [ "horizon" ] ~docv:"T" ~doc))

let usecase_arg =
  let doc =
    "Use-case: comma-separated application letters (e.g. A,C,D). Defaults to \
     all applications."
  in
  Arg.(value & opt (some string) None & info [ "usecase" ] ~docv:"APPS" ~doc)

let estimator_conv =
  (* One estimator grammar for the CLI and the wire protocol. *)
  let parse s =
    Result.map_error (fun msg -> `Msg msg) (Serve.Protocol.estimator_of_string s)
  in
  let print ppf e = Format.pp_print_string ppf (Contention.Analysis.estimator_name e) in
  Arg.conv (parse, print)

let estimator_arg =
  let doc =
    "Estimator: worst-case (wc), second-order (o2), fourth-order (o4), \
     composability (comp), exact, or a numeric order m >= 2."
  in
  Arg.(
    value
    & opt estimator_conv (Contention.Analysis.Order 2)
    & info [ "method" ] ~docv:"METHOD" ~doc)

let jobs_arg =
  let doc =
    "Domains to run the use-case sweep on (default: the machine's recommended \
     domain count minus one; also settable via $(b,CONTENTION_JOBS)). The \
     results are identical for every value — 1 disables parallelism."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let load_arg =
  let doc = "Load the workload from a file written by $(b,generate --save)." in
  Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Record spans while the command runs and write a Chrome/Perfetto trace \
     (load it at $(b,https://ui.perfetto.dev)) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Tracing wraps the whole command so a run that dies halfway still dumps
   the spans it recorded — that partial trace is exactly what one wants
   when hunting the failure.  [process_name] labels the file's process
   metadata so $(b,trace-merge) can tell a shard's file from the client's. *)
let with_trace ?process_name trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Obs.Span.set_enabled true;
      Fun.protect
        ~finally:(fun () ->
          Obs.Span.set_enabled false;
          Obs.Trace.write_file ?process_name ~path (Obs.Span.drain ());
          Printf.eprintf "wrote trace to %s\n%!" path)
        f

let workload ?load seed num_apps procs =
  match load with
  | Some (Some path) -> (
      match Exp.Workload.load path with
      | Ok w -> w
      | Error msg ->
          Printf.eprintf "cannot load %s: %s\n" path msg;
          exit 2)
  | Some None | None -> Exp.Workload.make ~seed ~num_apps ~procs ()

let parse_usecase w = function
  | None -> Ok (Contention.Usecase.full ~napps:(Exp.Workload.num_apps w))
  | Some spec ->
      let parts = String.split_on_char ',' (String.trim spec) in
      let lookup acc part =
        match acc with
        | Error _ as e -> e
        | Ok mask -> (
            match Exp.Workload.app_index w (String.trim part) with
            | i -> Ok (Contention.Usecase.add i mask)
            | exception Not_found ->
                Error (Printf.sprintf "unknown application %S" part))
      in
      List.fold_left lookup (Ok 0) parts

(* ------------------------------------------------------------------ *)
(* generate                                                            *)

let generate_cmd =
  let dot_dir =
    let doc = "Write each graph as DOT into $(docv)." in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"DIR" ~doc)
  in
  let save_file =
    let doc = "Save the workload (reloadable with --load) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let run seed num_apps procs dot_dir save_file =
    let w = workload seed num_apps procs in
    (match save_file with
    | None -> ()
    | Some path ->
        Exp.Workload.save w path;
        Printf.printf "saved workload to %s\n" path);
    let names = Exp.Workload.names w in
    let periods = Exp.Workload.isolation_periods w in
    Array.iteri
      (fun i (a : Contention.Analysis.app) ->
        let q = a.repetition in
        Printf.printf "%s: %d actors, %d channels, q = [%s], Per = %.1f\n" names.(i)
          (Sdf.Graph.num_actors a.graph)
          (Sdf.Graph.num_channels a.graph)
          (String.concat ";" (Array.to_list (Array.map string_of_int q)))
          periods.(i);
        match dot_dir with
        | None -> ()
        | Some dir ->
            if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
            let path = Filename.concat dir (names.(i) ^ ".dot") in
            Sdf.Dot.write_file path a.graph;
            Printf.printf "  wrote %s\n" path)
      w.apps
  in
  let term =
    Term.(const run $ seed_arg $ num_apps_arg $ procs_arg $ dot_dir $ save_file)
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a random SDFG workload") term

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze_cmd =
  let iterations =
    let doc = "Fixed-point refinement passes (1 = the paper's single pass)." in
    Arg.(value & opt int 1 & info [ "iterations" ] ~docv:"K" ~doc)
  in
  let run seed num_apps procs usecase estimator iterations =
    let w = workload seed num_apps procs in
    match parse_usecase w usecase with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok uc ->
        let apps = Exp.Workload.analysis_apps w uc in
        let results = Contention.Analysis.estimate ~iterations estimator apps in
        Printf.printf "Use-case %s, estimator %s:\n"
          (Format.asprintf "%a" (Contention.Usecase.pp ~napps:(Exp.Workload.num_apps w)) uc)
          (Contention.Analysis.estimator_name estimator);
        List.iter
          (fun (r : Contention.Analysis.estimate) ->
            Printf.printf
              "  %s: period %.1f (isolation %.1f, +%.1f%%), throughput %.6f\n"
              r.for_app.graph.Sdf.Graph.name r.period r.for_app.isolation_period
              (100. *. (r.period /. r.for_app.isolation_period -. 1.))
              (Contention.Analysis.throughput r))
          results
  in
  let term =
    Term.(
      const run $ seed_arg $ num_apps_arg $ procs_arg $ usecase_arg $ estimator_arg
      $ iterations)
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Probabilistic period estimation for a use-case") term

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let run seed num_apps procs usecase horizon =
    let w = workload seed num_apps procs in
    match parse_usecase w usecase with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok uc ->
        let results, stats =
          Desim.Engine.run ~horizon ~procs (Exp.Workload.sim_apps w uc)
        in
        Printf.printf "Simulated use-case %s for %.0f time units:\n"
          (Format.asprintf "%a" (Contention.Usecase.pp ~napps:(Exp.Workload.num_apps w)) uc)
          horizon;
        Array.iter
          (fun (r : Desim.Engine.result) ->
            Printf.printf "  %s: avg period %.1f, worst %.1f, %d iterations\n"
              r.app_name r.avg_period r.max_period r.iterations)
          results;
        let util = Desim.Engine.utilisation stats in
        Printf.printf "  processor utilisation: %s\n"
          (String.concat " "
             (Array.to_list (Array.map (Printf.sprintf "%.2f") util)));
        match stats.cycle with
        | Some c ->
            Printf.printf
              "  cycle: the state at t=%.0f recurs every %.0f; %d whole cycles (%.0f time \
               units) skipped\n"
              c.start c.length c.skipped
              (float_of_int c.skipped *. c.length)
        | None -> print_endline "  cycle: none skipped, every firing stepped"
  in
  let term =
    Term.(const run $ seed_arg $ num_apps_arg $ procs_arg $ usecase_arg $ horizon_arg)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Discrete-event simulation of a use-case") term

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let sections =
    let doc =
      "Sections to run: fig5, table1, fig6, timing, or all (default)."
    in
    Arg.(value & pos_all string [ "all" ] & info [] ~docv:"SECTION" ~doc)
  in
  let run seed num_apps procs horizon jobs trace sections =
    with_trace trace (fun () ->
        let wants s = List.mem "all" sections || List.mem s sections in
        let w = workload seed num_apps procs in
        if wants "fig5" then
          print_string (Exp.Figures.render_fig5 (Exp.Figures.fig5 ~horizon w));
        if wants "table1" || wants "fig6" || wants "timing" then begin
          let last = ref 0 in
          let progress done_ total =
            let pct = 100 * done_ / total in
            if pct >= !last + 10 then begin
              last := pct;
              Printf.eprintf "  sweep: %d%% (%d/%d use-cases)\n%!" pct done_ total
            end
          in
          let sweep = Exp.Sweep.run ~horizon ~progress ?jobs w in
          if wants "table1" then
            print_string (Exp.Figures.render_table1 (Exp.Figures.table1 sweep));
          if wants "fig6" then
            print_string (Exp.Figures.render_fig6 (Exp.Figures.fig6 sweep));
          if wants "timing" then print_string (Exp.Figures.render_timing sweep)
        end)
  in
  let term =
    Term.(
      const run $ seed_arg $ num_apps_arg $ procs_arg $ horizon_arg $ jobs_arg
      $ trace_arg $ sections)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Reproduce the paper's evaluation (Figure 5, Table 1, Figure 6, timing)")
    term

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)

let exact_check_arg =
  let doc =
    "Re-run every estimate on the list-based reference implementation and \
     fail on any divergence from the zero-allocation kernel beyond 1e-9 \
     (slower; a self-validating mode for unattended runs)."
  in
  Arg.(value & flag & info [ "exact-check" ] ~doc)

let sweep_cmd =
  let run seed num_apps procs horizon jobs load trace exact_check =
    with_trace trace (fun () ->
        let w = workload ~load seed num_apps procs in
        let last = ref 0 in
        let progress done_ total =
          let pct = 100 * done_ / total in
          if pct >= !last + 10 then begin
            last := pct;
            Printf.eprintf "  sweep: %d%% (%d/%d use-cases)\n%!" pct done_ total
          end
        in
        let sweep = Exp.Sweep.run ~horizon ~progress ?jobs ~exact_check w in
        print_string (Exp.Figures.render_table1 (Exp.Figures.table1 sweep));
        print_string (Exp.Figures.render_timing sweep))
  in
  let term =
    Term.(
      const run $ seed_arg $ num_apps_arg $ procs_arg $ horizon_arg $ jobs_arg
      $ load_arg $ trace_arg $ exact_check_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Sweep every use-case (simulation + all estimators) and print the \
          accuracy table and timing; $(b,--trace) records where the time \
          goes; $(b,--exact-check) cross-validates the kernel against the \
          reference path")
    term

(* ------------------------------------------------------------------ *)
(* report                                                              *)

let report_cmd =
  let run seed num_apps procs usecase horizon jobs load trace =
    let w = workload ~load seed num_apps procs in
    match parse_usecase w usecase with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok uc ->
        with_trace trace (fun () ->
            let report = Exp.Report.build ~horizon ?jobs w uc in
            print_string
              (Exp.Report.render ~napps:(Exp.Workload.num_apps w) report))
  in
  let term =
    Term.(
      const run $ seed_arg $ num_apps_arg $ procs_arg $ usecase_arg $ horizon_arg
      $ jobs_arg $ load_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Estimated vs simulated periods and processor utilisation for a use-case")
    term

(* ------------------------------------------------------------------ *)
(* sensitivity                                                         *)

let sensitivity_cmd =
  let victim =
    let doc = "Rank interferers of this application only." in
    Arg.(value & opt (some string) None & info [ "victim" ] ~docv:"APP" ~doc)
  in
  let run seed num_apps procs usecase estimator victim jobs load =
    let w = workload ~load seed num_apps procs in
    match parse_usecase w usecase with
    | Error msg ->
        prerr_endline msg;
        exit 2
    | Ok uc -> (
        let apps = Exp.Workload.analysis_apps w uc in
        (* Each leave-one-out column is a pure task: fan them out. *)
        let pmap f xs = Exp.Pool.map_list ?jobs f xs in
        match victim with
        | None ->
            print_string
              (Contention.Sensitivity.render
                 (Contention.Sensitivity.leave_one_out ~pmap ~estimator apps))
        | Some name -> (
            match
              Contention.Sensitivity.rank_for ~pmap ~estimator ~victim:name apps
            with
            | ranked -> print_string (Contention.Sensitivity.render ranked)
            | exception Not_found ->
                Printf.eprintf "application %S is not in the use-case\n" name;
                exit 2))
  in
  let term =
    Term.(
      const run $ seed_arg $ num_apps_arg $ procs_arg $ usecase_arg $ estimator_arg
      $ victim $ jobs_arg $ load_arg)
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Leave-one-out impact of each application on the others' periods")
    term

(* ------------------------------------------------------------------ *)
(* inspect                                                             *)

let inspect_cmd =
  let app_name =
    let doc = "Application to inspect (a letter, e.g. C)." in
    Arg.(value & opt string "A" & info [ "app" ] ~docv:"APP" ~doc)
  in
  let save =
    let doc = "Also save the graph in the text format to $(docv)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let run seed num_apps procs app_name save =
    let w = workload seed num_apps procs in
    match Exp.Workload.app_index w app_name with
    | exception Not_found ->
        Printf.eprintf "unknown application %S\n" app_name;
        exit 2
    | i ->
        let a = w.apps.(i) in
        let g = a.Contention.Analysis.graph in
        Format.printf "%a@." Sdf.Graph.pp g;
        Printf.printf "repetition vector: [%s]\n"
          (String.concat "; " (Array.to_list (Array.map string_of_int a.repetition)));
        Printf.printf "period: %.2f (statespace) / %.2f (HSDF+MCM)\n"
          (Sdf.Statespace.period_exn g) (Sdf.Hsdf.period g);
        (match Sdf.Metrics.analyse g with
        | None -> print_endline "metrics: graph deadlocks"
        | Some m ->
            Printf.printf "latency: %.2f, makespan (3 iterations): %.2f\n" m.latency
              m.makespan;
            Printf.printf "buffer peaks: [%s] (total %d)\n"
              (String.concat "; "
                 (Array.to_list (Array.map string_of_int m.buffer_peaks)))
              (Sdf.Metrics.buffer_bound_total m));
        let caps = Sdf.Capacity.sufficient_capacities g in
        Printf.printf "schedule-preserving capacities: [%s]\n"
          (String.concat "; " (Array.to_list (Array.map string_of_int caps)));
        (match save with
        | None -> ()
        | Some path ->
            Sdf.Text.write_file path g;
            Printf.printf "saved to %s\n" path)
  in
  let term = Term.(const run $ seed_arg $ num_apps_arg $ procs_arg $ app_name $ save) in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Periods, latency, buffer bounds and export of one graph")
    term

(* ------------------------------------------------------------------ *)
(* export                                                              *)

let export_cmd =
  let out_dir =
    let doc = "Directory for the CSV files (created if missing)." in
    Arg.(value & opt string "results" & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let run seed num_apps procs horizon jobs trace out_dir =
    with_trace trace (fun () ->
        let w = workload seed num_apps procs in
        if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
        let save name contents =
          let path = Filename.concat out_dir name in
          Exp.Export.write ~path contents;
          Printf.printf "wrote %s\n%!" path
        in
        save "fig5.csv" (Exp.Export.fig5_csv (Exp.Figures.fig5 ~horizon w));
        Printf.printf "sweeping all use-cases...\n%!";
        let sweep = Exp.Sweep.run ~horizon ?jobs w in
        save "table1.csv" (Exp.Export.table1_csv (Exp.Figures.table1 sweep));
        save "fig6.csv" (Exp.Export.fig6_csv (Exp.Figures.fig6 sweep));
        save "observations.csv" (Exp.Export.observations_csv sweep))
  in
  let term =
    Term.(
      const run $ seed_arg $ num_apps_arg $ procs_arg $ horizon_arg $ jobs_arg
      $ trace_arg $ out_dir)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export the evaluation data (Fig. 5/6, Table 1, raw sweep) as CSV")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let host_arg =
  let doc = "Address the daemon binds / the client connects to." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg =
  let doc = "TCP port (0 picks an ephemeral port; the daemon prints it)." in
  Arg.(value & opt int 4557 & info [ "port" ] ~docv:"PORT" ~doc)

let unix_arg =
  let doc = "Also (serve) or instead (query) use a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc)

(* Peer lists are shared between serve (forwarding) and loadgen (routing):
   --peers takes the endpoints inline, --peers-file reads one per line. *)
let peers_arg =
  let doc =
    "Comma-separated shard endpoints (host:port or unix:PATH) forming the \
     cluster, in the same order on every node and client."
  in
  Arg.(value & opt (some string) None & info [ "peers" ] ~docv:"LIST" ~doc)

let peers_file_arg =
  let doc = "File with one shard endpoint per line ($(i,#) comments allowed)." in
  Arg.(value & opt (some string) None & info [ "peers-file" ] ~docv:"FILE" ~doc)

let resolve_peers peers peers_file =
  match (peers, peers_file) with
  | Some _, Some _ -> Error "--peers and --peers-file are mutually exclusive"
  | Some list, None -> Result.map Option.some (Cluster.Endpoint.parse_list list)
  | None, Some file -> Result.map Option.some (Cluster.Endpoint.load_file file)
  | None, None -> Ok None

let serve_cmd =
  let cache_arg =
    let doc = "Estimate-cache capacity in entries." in
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Accept-queue bound: connections beyond this many waiting for a worker \
       receive a shed verdict instead of queueing (0 = unbounded)."
    in
    Arg.(value & opt int 1024 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let hot_threshold_arg =
    let doc =
      "Estimate requests per cache entry before it counts as hot and is \
       replicated to the digest's failover peer (needs $(b,--peers); 0 = off)."
    in
    Arg.(value & opt int 3 & info [ "hot-threshold" ] ~docv:"N" ~doc)
  in
  let journal_arg =
    let doc =
      "Append sampled per-request records (trace id, command, shard, queue \
       depth, outcome, latency) as JSONL to $(docv), size-rotated to \
       $(docv).1."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let journal_sample_arg =
    let doc =
      "Journal 1 in $(docv) context-free requests (requests carrying a trace \
       context follow the context's sampled bit instead)."
    in
    Arg.(value & opt int 16 & info [ "journal-sample" ] ~docv:"N" ~doc)
  in
  let journal_max_bytes_arg =
    let doc = "Rotate the journal after it exceeds $(docv) bytes (0 = never)." in
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info [ "journal-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let slo_latency_arg =
    let doc =
      "Latency objective in milliseconds: slower requests (and sheds) burn \
       the SLO error budget reported by $(b,stats) and the metrics page."
    in
    Arg.(value & opt float 50. & info [ "slo-latency-ms" ] ~docv:"MS" ~doc)
  in
  let slo_target_arg =
    let doc = "SLO availability target, e.g. 0.999." in
    Arg.(value & opt float 0.999 & info [ "slo-target" ] ~docv:"FRACTION" ~doc)
  in
  let audit_sample_arg =
    let doc =
      "Shadow-audit 1 in $(docv) served estimates: replay them through the \
       simulator on a background domain and track the per-estimator error \
       distribution and drift (0 = off)."
    in
    Arg.(value & opt int 0 & info [ "audit-sample" ] ~docv:"N" ~doc)
  in
  let audit_horizon_arg =
    let doc = "Simulation horizon of audit replays, in time units." in
    Term.(
      const (checked_horizon "--audit-horizon")
      $ Arg.(
          value
          & opt float Serve.Audit.default_config.Serve.Audit.horizon
          & info [ "audit-horizon" ] ~docv:"T" ~doc))
  in
  let audit_drift_delta_arg =
    let doc =
      "Page-Hinkley slack: per-sample mean shifts below $(docv) never \
       accumulate toward a drift alarm."
    in
    Arg.(
      value
      & opt float Serve.Audit.default_config.Serve.Audit.drift_delta
      & info [ "audit-drift-delta" ] ~docv:"D" ~doc)
  in
  let audit_drift_lambda_arg =
    let doc =
      "Page-Hinkley threshold: alarm when the cumulative error deviation \
       exceeds $(docv).  Scale it to the error spread of the workloads \
       actually served — the default suits a stream of near-identical \
       errors; a varied working set needs a larger value."
    in
    Arg.(
      value
      & opt float Serve.Audit.default_config.Serve.Audit.drift_lambda
      & info [ "audit-drift-lambda" ] ~docv:"L" ~doc)
  in
  let run host port unix_path jobs cache max_queue hot_threshold peers
      peers_file journal journal_sample journal_max_bytes slo_latency_ms
      slo_target audit_sample audit_horizon audit_drift_delta
      audit_drift_lambda trace =
    if cache < 1 then begin
      prerr_endline "cache capacity must be at least 1";
      exit 2
    end;
    let peers =
      match resolve_peers peers peers_file with
      | Ok v -> v
      | Error msg ->
          Printf.eprintf "contention serve: %s\n" msg;
          exit 2
    in
    (* This node's own entry in the peer list, so hot entries are forwarded
       to the digest's failover peer rather than back to ourselves.  The
       same identity labels the journal's shard field and the trace file's
       process name. *)
    let self_of endpoints =
      List.find_opt
        (function
          | Cluster.Endpoint.Unix_sock p -> Some p = unix_path
          | Cluster.Endpoint.Tcp t -> t.host = host && t.port = port)
        endpoints
    in
    let self = Option.bind peers self_of in
    let self_name =
      match self with
      | Some e -> Cluster.Endpoint.to_string e
      | None -> (
          match unix_path with
          | Some p when port = 0 -> "unix:" ^ p
          | _ -> Printf.sprintf "%s:%d" host port)
    in
    let config =
      {
        Serve.Server.default_config with
        host;
        port = Some port;
        unix_path;
        jobs;
        cache_capacity = cache;
        max_queue;
        hot_threshold = (if peers = None then 0 else hot_threshold);
        journal_path = journal;
        journal_sample;
        journal_max_bytes;
        slo_objective_ms = slo_latency_ms;
        slo_target;
        shard = Some self_name;
        audit_sample;
        audit_horizon;
        audit_drift_delta;
        audit_drift_lambda;
      }
    in
    let router =
      Option.map
        (fun endpoints ->
          Cluster.Router.create ~pool_size:2 ~timeout:5. endpoints)
        peers
    in
    let on_hot =
      Option.map
        (fun r entry -> Cluster.Router.forward_hot r ~self entry)
        router
    in
    with_trace ~process_name:self_name trace (fun () ->
        let server =
          try Serve.Server.start ?on_hot ~config ()
          with Unix.Unix_error (err, _, _) ->
            Printf.eprintf "cannot start server: %s\n" (Unix.error_message err);
            exit 1
        in
        (match Serve.Server.tcp_port server with
        | Some p ->
            Printf.printf "contention serve: listening on %s:%d\n%!" host p
        | None -> ());
        Option.iter
          (fun path -> Printf.printf "contention serve: listening on %s\n%!" path)
          unix_path;
        let interrupted = Atomic.make false in
        let on_signal _ = Atomic.set interrupted true in
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
         with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
         with Invalid_argument _ -> ());
        Serve.Server.run_until_stopped
          ~should_stop:(fun () -> Atomic.get interrupted)
          server;
        Option.iter Cluster.Router.close router;
        Printf.printf
          "contention serve: drained in-flight requests, stopped\n%!")
  in
  let term =
    Term.(
      const run $ host_arg $ port_arg $ unix_arg $ jobs_arg $ cache_arg
      $ max_queue_arg $ hot_threshold_arg $ peers_arg $ peers_file_arg
      $ journal_arg $ journal_sample_arg $ journal_max_bytes_arg
      $ slo_latency_arg $ slo_target_arg $ audit_sample_arg
      $ audit_horizon_arg $ audit_drift_delta_arg $ audit_drift_lambda_arg
      $ trace_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online resource-manager daemon (upload / estimate / admit / \
          release / stats over newline-delimited JSON)")
    term

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_cmd =
  let seeds_arg =
    let doc = "Fuzz seeds to run (each is one generated workload)." in
    Arg.(value & opt int 500 & info [ "seeds" ] ~docv:"N" ~doc)
  in
  let budget_arg =
    let doc =
      "Wall-clock budget in seconds; seeds not started before it expires are \
       skipped (and reported as such)."
    in
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SECS" ~doc)
  in
  let corpus_arg =
    let doc =
      "Corpus directory: existing $(i,.case) files are replayed first (they \
       pin previously fixed bugs and must pass), and any new shrunk \
       counterexample is saved there."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let wire_arg =
    let doc = "Skip the wire-protocol fuzz of the serve daemon." in
    Arg.(value & flag & info [ "no-wire" ] ~doc)
  in
  let churn_arg =
    let doc =
      "Also run the churn soak: ramp an admission controller to this many \
       resident applications, then drive seeded join/leave/observe churn \
       with the from-scratch re-fold oracle.  Fails on any oracle violation \
       or if a join/leave ever re-folds from scratch."
    in
    Arg.(value & opt (some int) None & info [ "churn" ] ~docv:"APPS" ~doc)
  in
  let churn_json_arg =
    let doc =
      "Write the churn campaign's rebuild/drift counters to this JSON file \
       (CI uploads it as an artifact)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "churn-json" ] ~docv:"FILE" ~doc)
  in
  let run seeds jobs budget corpus no_wire churn churn_json trace =
    with_trace trace (fun () ->
        let failed = ref false in
        (match corpus with
        | None -> ()
        | Some dir ->
            let outcomes, errors = Check.Fuzz.replay ~dir () in
            if outcomes <> [] || errors <> [] then begin
              print_string (Check.Report.render_replay outcomes errors);
              if
                errors <> []
                || List.exists
                     (fun (_, (o : Check.Oracle.outcome)) ->
                       o.violations <> [])
                     outcomes
              then failed := true
            end);
        let r = Check.Fuzz.run ?jobs ?budget_s:budget ~seeds () in
        print_string (Check.Report.render r);
        if not (Check.Fuzz.passed r) then failed := true;
        (match corpus with
        | None -> ()
        | Some dir ->
            List.iter
              (fun f ->
                let path = Check.Corpus.save ~dir (Check.Fuzz.to_corpus f) in
                Printf.printf "saved counterexample to %s\n" path)
              r.failures);
        if not no_wire then begin
          let w = Check.Wirefuzz.run ~seeds:(min seeds 200) () in
          Printf.printf "\nwire fuzz: %d requests, %d violations\n" w.requests
            (List.length w.violations);
          List.iter
            (fun (v : Check.Oracle.violation) ->
              Printf.printf "  %s: %s\n" v.property v.detail)
            w.violations;
          if not (Check.Wirefuzz.passed w) then failed := true
        end;
        (match churn with
        | None -> ()
        | Some resident ->
            let config =
              {
                Check.Fuzz.default_churn_config with
                Check.Fuzz.resident;
                events = (2 * resident) + 1500;
                check_every = resident;
                period_slack = Float.max 12. (0.25 *. float_of_int resident);
              }
            in
            let r = Check.Fuzz.churn ~config ~seed:1 () in
            let c = r.Check.Fuzz.counters in
            Printf.printf
              "\n\
               churn soak: %d residents, %d events (%d joins, %d leaves, %d \
               observes), %d oracle checks\n\
              \  max p deviation %.3g, max w deviation %.3g\n\
              \  full rebuilds %d, drift refolds %d, group rebuilds %d, \
               group drift refolds %d, %d violations\n"
              resident r.Check.Fuzz.churn_events r.Check.Fuzz.joins
              r.Check.Fuzz.leaves r.Check.Fuzz.observes r.Check.Fuzz.checks
              r.Check.Fuzz.max_p_err r.Check.Fuzz.max_w_err
              c.Contention.Admission.full_rebuilds
              c.Contention.Admission.drift_refolds
              c.Contention.Admission.group_rebuilds
              c.Contention.Admission.group_drift_refolds
              (List.length r.Check.Fuzz.churn_violations);
            List.iter
              (fun (v : Check.Metamorphic.violation) ->
                Printf.printf "  %s: %s\n" v.property v.detail)
              r.Check.Fuzz.churn_violations;
            (match churn_json with
            | None -> ()
            | Some file ->
                let doc =
                  Serve.Json.Obj
                    [
                      ("schema", Serve.Json.Str "contention-churn/1");
                      ("resident", Serve.Json.Num (float_of_int resident));
                      ( "events",
                        Serve.Json.Num
                          (float_of_int r.Check.Fuzz.churn_events) );
                      ("joins", Serve.Json.Num (float_of_int r.Check.Fuzz.joins));
                      ( "leaves",
                        Serve.Json.Num (float_of_int r.Check.Fuzz.leaves) );
                      ( "observes",
                        Serve.Json.Num (float_of_int r.Check.Fuzz.observes) );
                      ( "checks",
                        Serve.Json.Num (float_of_int r.Check.Fuzz.checks) );
                      ("max_p_err", Serve.Json.Num r.Check.Fuzz.max_p_err);
                      ("max_w_err", Serve.Json.Num r.Check.Fuzz.max_w_err);
                      ( "incremental_ops",
                        Serve.Json.Num
                          (float_of_int c.Contention.Admission.incremental_ops)
                      );
                      ( "full_rebuilds",
                        Serve.Json.Num
                          (float_of_int c.Contention.Admission.full_rebuilds) );
                      ( "drift_refolds",
                        Serve.Json.Num
                          (float_of_int c.Contention.Admission.drift_refolds) );
                      ( "group_rebuilds",
                        Serve.Json.Num
                          (float_of_int c.Contention.Admission.group_rebuilds)
                      );
                      ( "group_drift_refolds",
                        Serve.Json.Num
                          (float_of_int
                             c.Contention.Admission.group_drift_refolds) );
                      ( "violations",
                        Serve.Json.Num
                          (float_of_int
                             (List.length r.Check.Fuzz.churn_violations)) );
                    ]
                in
                let oc = open_out file in
                output_string oc (Serve.Json.to_string doc);
                output_char oc '\n';
                close_out oc;
                Printf.printf "wrote churn counters to %s\n" file);
            if
              (not (Check.Fuzz.churn_passed r))
              || c.Contention.Admission.full_rebuilds <> 0
            then failed := true);
        if !failed then exit 1)
  in
  let term =
    Term.(
      const run $ seeds_arg $ jobs_arg $ budget_arg $ corpus_arg $ wire_arg
      $ churn_arg $ churn_json_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential validation: fuzz random workloads through every \
          estimator, the simulator and the wire protocol, checking provable \
          invariants; violations are shrunk to minimal reproducing specs and \
          the accuracy of each estimator against simulation is reported")
    term

(* ------------------------------------------------------------------ *)
(* query / stats                                                       *)

let print_stats (s : Serve.Protocol.stats_reply) =
  Printf.printf "uptime %.1fs, %d connections, %d requests\n" s.uptime_s
    s.connections s.requests_total;
  List.iter (fun (cmd, n) -> Printf.printf "  %-10s %d\n" cmd n) s.requests;
  Printf.printf "workloads %d, sessions %d\n" s.workloads s.sessions;
  Printf.printf "cache: %d/%d entries, %d hits, %d misses (hit rate %.1f%%)\n"
    s.cache_entries s.cache_capacity s.cache_hits s.cache_misses
    (100. *. Serve.Protocol.cache_hit_rate s);
  Printf.printf "pool: %d of %d workers busy (occupancy %.0f%%)\n"
    s.active_connections s.workers
    (100. *. Serve.Protocol.pool_occupancy s);
  Printf.printf "backpressure: queue bound %s, %d connections shed\n"
    (if s.queue_capacity = 0 then "off" else string_of_int s.queue_capacity)
    s.shed;
  Printf.printf "admission: %d admitted, %d rejected (candidate), %d rejected \
                 (victim), %d released\n"
    s.admitted s.rejected_candidate s.rejected_victim s.released;
  Printf.printf
    "latency: mean %.0fus, p50 %.0fus, p90 %.0fus, p99 %.0fus, max %.0fus \
     over %d requests\n"
    s.latency_mean_us s.latency_p50_us s.latency_p90_us s.latency_p99_us
    s.latency_max_us s.latency_samples;
  if s.slo_objective_ms > 0. then
    Printf.printf
      "slo: %.1fms at %.4g%%, burn rate %.2fx (1m) / %.2fx (1h)\n"
      s.slo_objective_ms (100. *. s.slo_target) s.slo_burn_1m s.slo_burn_1h;
  if s.audit.audit_sample > 0 then begin
    Printf.printf
      "audit: 1-in-%d sampling, %d submitted, %d replayed, %d dropped, %d \
       failed\n"
      s.audit.audit_sample s.audit.audit_submitted s.audit.audit_completed
      s.audit.audit_dropped s.audit.audit_failed;
    Printf.printf "audit: mean err %+.4f, max |err| %.4f, %d drift alarms%s\n"
      s.audit.audit_mean_err s.audit.audit_max_abs_err s.audit.audit_alarms
      (match s.audit.audit_drifting with
      | [] -> ""
      | drifting -> " (drifting: " ^ String.concat "," drifting ^ ")")
  end

let with_client ~host ~port ~unix_path f =
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt in
  let client =
    match
      match unix_path with
      | Some path -> Serve.Client.connect_unix path
      | None -> Serve.Client.connect ~host ~port ()
    with
    | Ok c -> c
    | Error msg -> fail "cannot connect: %s" msg
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () -> f client)

let query_cmd =
  let session_arg =
    let doc = "Admission session the admit/release applies to." in
    Arg.(
      value
      & opt string Serve.Protocol.default_session
      & info [ "session" ] ~docv:"NAME" ~doc)
  in
  let min_tp_arg =
    let doc = "Throughput requirement for admit (0 = best effort)." in
    Arg.(value & opt float 0. & info [ "min-throughput" ] ~docv:"TP" ~doc)
  in
  let confidence_arg =
    let doc =
      "Ask admit for a confidence interval around the served period, e.g. \
       0.95.  Must be strictly between 0 and 1; omitting the flag keeps the \
       plain point estimate."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "confidence" ] ~docv:"LEVEL" ~doc)
  in
  let margin_method_arg =
    let doc =
      "Margin variant for --confidence: $(b,z-score) (analytic, default) or \
       $(b,quantile) (empirical Monte-Carlo quantiles)."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "margin-method" ] ~docv:"METHOD" ~doc)
  in
  let words_arg =
    let doc =
      "Command: ping | upload FILE | estimate DIGEST | admit DIGEST APP | \
       release APP | stats | metrics | shutdown."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"COMMAND" ~doc)
  in
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt in
  let print_estimate (r : Serve.Protocol.estimate_reply) =
    Printf.printf "estimator %s%s:\n" r.estimator
      (if r.cached then " (cached)" else "");
    List.iter
      (fun (row : Serve.Protocol.estimate_row) ->
        Printf.printf
          "  %s: period %.1f (isolation %.1f, +%.1f%%), throughput %.6f\n"
          row.app row.period row.isolation_period
          (100. *. ((row.period /. row.isolation_period) -. 1.))
          row.throughput)
      r.rows
  in
  let run host port unix_path usecase estimator session min_tp confidence
      margin_method words =
    let margin_method =
      Option.map
        (fun s ->
          match Contention.Margin.method_of_string s with
          | Ok m -> m
          | Error msg -> fail "%s" msg)
        margin_method
    in
    with_client ~host ~port ~unix_path
      (fun client ->
        let check = function Ok v -> v | Error msg -> fail "%s" msg in
        match words with
        | [ "ping" ] ->
            check (Serve.Client.ping client);
            print_endline "pong"
        | [ "upload"; file ] ->
            let payload =
              match open_in file with
              | exception Sys_error msg -> fail "cannot read %s: %s" file msg
              | ic ->
                  Fun.protect
                    ~finally:(fun () -> close_in ic)
                    (fun () -> really_input_string ic (in_channel_length ic))
            in
            let r = check (Serve.Client.upload client ~payload) in
            Printf.printf "digest %s (%d apps on %d processors: %s)\n" r.digest
              (List.length r.apps) r.procs
              (String.concat "," r.apps)
        | [ "estimate"; digest ] ->
            let usecase =
              Option.map
                (fun spec ->
                  List.map String.trim (String.split_on_char ',' spec))
                usecase
            in
            print_estimate
              (check
                 (Serve.Client.estimate client ~digest ?usecase ~estimator ()))
        | [ "admit"; digest; app ] -> (
            match
              check
                (Serve.Client.admit client ~session ?confidence ?margin_method
                   ~digest ~app ~min_throughput:min_tp ())
            with
            | Serve.Protocol.Admitted { throughput; margin } -> (
                Printf.printf "admitted %s (estimated throughput %.6f)\n" app
                  throughput;
                match margin with
                | None -> ()
                | Some m ->
                    Printf.printf
                      "  period %.1f in [%.1f, %.1f] at %g%% confidence (%s)\n"
                      m.Contention.Margin.period m.Contention.Margin.lo
                      m.Contention.Margin.hi
                      (100. *. m.Contention.Margin.confidence)
                      (Contention.Margin.method_to_string
                         m.Contention.Margin.method_))
            | Serve.Protocol.Rejected_candidate { estimated; required } ->
                Printf.printf
                  "rejected: %s itself would achieve %.6f < required %.6f\n" app
                  estimated required
            | Serve.Protocol.Rejected_victim { victim; estimated; required } ->
                Printf.printf
                  "rejected: admitting %s would push %s to %.6f < required %.6f\n"
                  app victim estimated required)
        | [ "release"; app ] ->
            check (Serve.Client.release client ~session ~app ());
            Printf.printf "released %s\n" app
        | [ "stats" ] -> print_stats (check (Serve.Client.stats client))
        | [ "metrics" ] ->
            let r = check (Serve.Client.metrics client) in
            print_string r.Serve.Protocol.prometheus
        | [ "shutdown" ] ->
            check (Serve.Client.shutdown client);
            print_endline "server stopping"
        | words -> fail "unknown query %S" (String.concat " " words))
  in
  let term =
    Term.(
      const run $ host_arg $ port_arg $ unix_arg $ usecase_arg $ estimator_arg
      $ session_arg $ min_tp_arg $ confidence_arg $ margin_method_arg
      $ words_arg)
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Query a running $(b,contention serve) daemon (one command per call)")
    term

let stats_cmd =
  let prometheus_arg =
    let doc =
      "Render the daemon's metric registry in the Prometheus text format \
       (per-command request counters, latency histograms, cache and pool \
       series) instead of the human-readable summary."
    in
    Arg.(value & flag & info [ "prometheus" ] ~doc)
  in
  let cluster_arg =
    let doc =
      "Fan out to every shard in $(b,--peers)/$(b,--peers-file) and merge: \
       per-shard summaries plus cluster totals, or (with $(b,--prometheus)) \
       one exposition with every series labelled by shard."
    in
    Arg.(value & flag & info [ "cluster" ] ~doc)
  in
  (* Cluster totals that are meaningful to add up; latency percentiles are
     per shard only (percentiles do not sum). *)
  let print_cluster_summary replies =
    let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 replies in
    let maxf f = List.fold_left (fun acc (_, s) -> Float.max acc (f s)) 0. replies in
    Printf.printf "cluster: %d shards, %d requests, %d shed, %d admitted, %d \
                   rejected\n"
      (List.length replies)
      (sum (fun (s : Serve.Protocol.stats_reply) -> s.requests_total))
      (sum (fun s -> s.shed))
      (sum (fun s -> s.admitted))
      (sum (fun s -> s.rejected_candidate + s.rejected_victim));
    Printf.printf "cluster: worst burn rate %.2fx (1m) / %.2fx (1h)\n"
      (maxf (fun s -> s.slo_burn_1m))
      (maxf (fun s -> s.slo_burn_1h));
    let audited = sum (fun s -> s.audit.Serve.Protocol.audit_completed) in
    if audited > 0 then begin
      let drifting =
        List.sort_uniq String.compare
          (List.concat_map
             (fun (_, s) ->
               s.Serve.Protocol.audit.Serve.Protocol.audit_drifting)
             replies)
      in
      Printf.printf
        "cluster: accuracy — %d estimates audited, %d dropped, worst |err| \
         %.4f, %d drift alarms%s\n"
        audited
        (sum (fun s -> s.audit.Serve.Protocol.audit_dropped))
        (maxf (fun s -> s.audit.Serve.Protocol.audit_max_abs_err))
        (sum (fun s -> s.audit.Serve.Protocol.audit_alarms))
        (match drifting with
        | [] -> ""
        | d -> " (drifting: " ^ String.concat "," d ^ ")")
    end
  in
  let run_cluster endpoints prometheus =
    let router = Cluster.Router.create ~pool_size:1 ~timeout:10. endpoints in
    Fun.protect
      ~finally:(fun () -> Cluster.Router.close router)
      (fun () ->
        let failed = ref false in
        if prometheus then begin
          let expositions =
            List.filter_map
              (fun (e, r) ->
                match r with
                | Ok (m : Serve.Protocol.metrics_reply) ->
                    Some (Cluster.Endpoint.to_string e, m.prometheus)
                | Error msg ->
                    Printf.eprintf "shard %s: %s\n"
                      (Cluster.Endpoint.to_string e) msg;
                    failed := true;
                    None)
              (Cluster.Router.metrics_all router)
          in
          print_string (Cluster.Promerge.merge expositions)
        end
        else begin
          let replies =
            List.filter_map
              (fun (e, r) ->
                let name = Cluster.Endpoint.to_string e in
                match r with
                | Ok s -> Some (name, s)
                | Error msg ->
                    Printf.eprintf "shard %s: %s\n" name msg;
                    failed := true;
                    None)
              (Cluster.Router.stats_all router)
          in
          List.iter
            (fun (name, s) ->
              Printf.printf "--- shard %s ---\n" name;
              print_stats s)
            replies;
          if replies <> [] then print_cluster_summary replies
        end;
        if !failed then exit 1)
  in
  let run host port unix_path prometheus cluster peers peers_file =
    if cluster then
      match resolve_peers peers peers_file with
      | Ok (Some endpoints) -> run_cluster endpoints prometheus
      | Ok None ->
          prerr_endline "stats --cluster needs --peers or --peers-file";
          exit 2
      | Error msg -> prerr_endline msg; exit 2
    else
      with_client ~host ~port ~unix_path (fun client ->
          if prometheus then
            match Serve.Client.metrics client with
            | Ok r -> print_string r.Serve.Protocol.prometheus
            | Error msg -> prerr_endline msg; exit 1
          else
            match Serve.Client.stats client with
            | Ok s -> print_stats s
            | Error msg -> prerr_endline msg; exit 1)
  in
  let term =
    Term.(
      const run $ host_arg $ port_arg $ unix_arg $ prometheus_arg $ cluster_arg
      $ peers_arg $ peers_file_arg)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Operational statistics of a running daemon; $(b,--prometheus) \
          prints a scrape-ready exposition, $(b,--cluster) fans out to every \
          shard and merges")
    term

(* ------------------------------------------------------------------ *)
(* explain                                                             *)

let explain_cmd =
  let digest_arg =
    let doc =
      "Ask a running daemon (see $(b,--port)/$(b,--unix)) for the provenance \
       of the estimate it serves for the stored workload $(docv), instead of \
       computing locally from $(b,--load)/$(b,--seed)."
    in
    Arg.(value & opt (some string) None & info [ "digest" ] ~docv:"DIGEST" ~doc)
  in
  let json_arg =
    let doc = "Print the provenance record as JSON instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let verify_arg =
    let doc =
      "Re-derive the estimate from the provenance record and check it matches \
       bit for bit: against the workload's graphs locally, and additionally \
       against the daemon's served rows when $(b,--digest) is given."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt in
  let same_float a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  let output json e =
    if json then
      print_endline
        (Serve.Json.to_string (Serve.Protocol.explain_reply_to_json e))
    else print_string (Contention.Explain.render e)
  in
  let run host port unix_path digest load seed num_apps procs usecase estimator
      json verify =
    match digest with
    | Some digest ->
        with_client ~host ~port ~unix_path (fun client ->
            let usecase =
              Option.map
                (fun spec ->
                  List.map String.trim (String.split_on_char ',' spec))
                usecase
            in
            let e =
              match
                Serve.Client.explain client ~digest ?usecase ~estimator ()
              with
              | Ok e -> e
              | Error msg -> fail "%s" msg
            in
            output json e;
            if verify then begin
              (* The served estimate, answered by the kernel engine (and
                 possibly from cache) — the provenance record must carry the
                 exact same numbers. *)
              let r =
                match
                  Serve.Client.estimate client ~digest ?usecase ~estimator ()
                with
                | Ok r -> r
                | Error msg -> fail "%s" msg
              in
              let apps = e.Contention.Explain.apps in
              if List.length r.rows <> List.length apps then
                fail "verify: %d served rows vs %d explained applications"
                  (List.length r.rows) (List.length apps);
              List.iter2
                (fun (row : Serve.Protocol.estimate_row)
                     (x : Contention.Explain.app) ->
                  if not (String.equal row.app x.Contention.Explain.x_app) then
                    fail "verify: served row %S vs explained application %S"
                      row.app x.Contention.Explain.x_app;
                  if
                    not
                      (same_float row.period x.Contention.Explain.x_period
                      && same_float row.isolation_period
                           x.Contention.Explain.x_isolation
                      && same_float row.throughput
                           x.Contention.Explain.x_throughput)
                  then
                    fail
                      "verify: served %s period %.17g differs from provenance \
                       %.17g"
                      row.app row.period x.Contention.Explain.x_period)
                r.rows apps;
              print_endline
                "verify: provenance matches the served estimate bit-for-bit"
            end)
    | None ->
        let w = workload ~load seed num_apps procs in
        let mask =
          match parse_usecase w usecase with
          | Ok m -> m
          | Error msg -> fail "%s" msg
        in
        let apps =
          List.map (fun i -> w.apps.(i)) (Contention.Usecase.to_list mask)
        in
        let e = Contention.Explain.compute estimator apps in
        output json e;
        if verify then begin
          match Contention.Explain.verify e apps with
          | Ok () ->
              print_endline
                "verify: provenance reproduces the estimate bit-for-bit"
          | Error msg -> fail "verify: %s" msg
        end
  in
  let term =
    Term.(
      const run $ host_arg $ port_arg $ unix_arg $ digest_arg $ load_arg
      $ seed_arg $ num_apps_arg $ procs_arg $ usecase_arg $ estimator_arg
      $ json_arg $ verify_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Structured provenance of a contention estimate: per-actor blocking \
          probabilities, contender folds, truncation error bounds and period \
          derivation — locally, or served by a running daemon with \
          $(b,--digest)")
    term

(* ------------------------------------------------------------------ *)
(* loadgen                                                             *)

let loadgen_cmd =
  let rate_arg =
    let doc = "Target aggregate request rate in req/s (open loop)." in
    Arg.(value & opt float 200. & info [ "rate" ] ~docv:"RPS" ~doc)
  in
  let duration_arg =
    let doc = "Run length in seconds." in
    Arg.(value & opt float 5. & info [ "duration" ] ~docv:"SECS" ~doc)
  in
  let threads_arg =
    let doc = "Worker threads issuing requests." in
    Arg.(value & opt int 16 & info [ "threads" ] ~docv:"N" ~doc)
  in
  let arrival_arg =
    let doc = "Arrival process: $(b,poisson) or $(b,uniform)." in
    Arg.(
      value
      & opt
          (Arg.enum
             [
               ("poisson", Cluster.Loadgen.Poisson);
               ("uniform", Cluster.Loadgen.Uniform);
             ])
          Cluster.Loadgen.Poisson
      & info [ "arrival" ] ~docv:"KIND" ~doc)
  in
  let working_set_arg =
    let doc = "Distinct workloads in the working set." in
    Arg.(value & opt int 8 & info [ "working-set" ] ~docv:"N" ~doc)
  in
  let skew_arg =
    let doc = "Zipf exponent over the working set (0 = uniform popularity)." in
    Arg.(value & opt float 1.0 & info [ "skew" ] ~docv:"S" ~doc)
  in
  let apps_arg =
    let doc = "Apps per generated workload." in
    Arg.(value & opt int 4 & info [ "apps" ] ~docv:"N" ~doc)
  in
  let procs_arg =
    let doc = "Processors per generated workload." in
    Arg.(value & opt int 2 & info [ "procs" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Write the contention-bench/1 report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let timeout_arg =
    let doc = "Per-connection connect/read/write timeout in seconds." in
    Arg.(value & opt float 10. & info [ "timeout" ] ~docv:"SECS" ~doc)
  in
  let pool_arg =
    let doc = "Connections per shard (bounds in-flight requests per shard)." in
    Arg.(value & opt int 8 & info [ "pool" ] ~docv:"N" ~doc)
  in
  let trace_sample_arg =
    let doc =
      "Set the head-based journal-sampling bit on 1 in $(docv) requests' \
       trace contexts (0 = issue context-free requests)."
    in
    Arg.(value & opt int 16 & info [ "trace-sample" ] ~docv:"N" ~doc)
  in
  let quiet_arg =
    let doc = "Suppress the once-per-second progress line on stderr." in
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc)
  in
  let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt in
  let run peers peers_file rate duration threads arrival working_set skew apps
      procs seed estimator json timeout pool trace trace_sample quiet =
    let endpoints =
      match resolve_peers peers peers_file with
      | Ok (Some endpoints) -> endpoints
      | Ok None -> fail "loadgen needs --peers or --peers-file"
      | Error msg -> fail "%s" msg
    in
    if working_set < 1 then fail "working set must be at least 1";
    let router =
      Cluster.Router.create ~pool_size:pool ~timeout endpoints
    in
    Fun.protect
      ~finally:(fun () -> Cluster.Router.close router)
      (fun () ->
        with_trace ~process_name:"loadgen" trace (fun () ->
            (* Fixed working set, uploaded (broadcast) before the clock
               starts. *)
            let digests =
              Array.init working_set (fun i ->
                  let w =
                    Exp.Workload.make ~seed:(seed + i) ~num_apps:apps ~procs ()
                  in
                  match
                    Cluster.Router.upload router
                      ~payload:(Exp.Workload.to_string w)
                  with
                  | Ok r -> r.Serve.Protocol.digest
                  | Error msg -> fail "%s" msg)
            in
            let config =
              {
                Cluster.Loadgen.rate;
                duration_s = duration;
                concurrency = threads;
                arrival;
                skew;
                seed;
                estimator;
                trace_sample;
              }
            in
            let on_progress =
              if quiet then None
              else
                Some
                  (fun p ->
                    Printf.eprintf "%s\n%!" (Cluster.Loadgen.progress_line p))
            in
            let report = Cluster.Loadgen.run ?on_progress config ~router ~digests in
            print_string (Cluster.Loadgen.render report);
            if List.length report.Cluster.Loadgen.per_shard > 1 then
              print_string (Cluster.Loadgen.render_per_shard report);
            Option.iter
              (fun path ->
                Out_channel.with_open_text path (fun oc ->
                    output_string oc
                      (Serve.Json.to_string
                         (Cluster.Loadgen.report_to_json report));
                    output_char oc '\n');
                Printf.printf "wrote %s\n" path)
              json;
            (* Sheds are the cluster behaving correctly under overload;
               errors are not — make them a failing exit so CI can assert on
               it. *)
            if report.Cluster.Loadgen.errors > 0 then exit 1))
  in
  let term =
    Term.(
      const run $ peers_arg $ peers_file_arg $ rate_arg $ duration_arg
      $ threads_arg $ arrival_arg $ working_set_arg $ skew_arg $ apps_arg
      $ procs_arg $ seed_arg $ estimator_arg $ json_arg $ timeout_arg
      $ pool_arg $ trace_arg $ trace_sample_arg $ quiet_arg)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Open-loop load harness for a serve cluster: fixed-rate Poisson or \
          uniform arrivals over a Zipf-skewed working set, with \
          consistent-hash routing and a latency/shed report")
    term

(* ------------------------------------------------------------------ *)
(* trace-merge                                                         *)

let trace_merge_cmd =
  let out_arg =
    let doc = "Write the merged Chrome/Perfetto trace to $(docv)." in
    Arg.(
      value & opt string "merged-trace.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let inputs_arg =
    let doc =
      "Per-process trace files written with $(b,--trace) (shards, loadgen, \
       any client)."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"TRACE" ~doc)
  in
  let run out inputs =
    let processes =
      List.map
        (fun path ->
          match Cluster.Trace.load path with
          | Ok p -> p
          | Error msg ->
              Printf.eprintf "cannot load %s: %s\n" path msg;
              exit 1)
        inputs
    in
    Out_channel.with_open_text out (fun oc ->
        output_string oc (Obs.Trace.merged_chrome_json processes));
    let spans =
      List.fold_left (fun n p -> n + List.length p.Obs.Trace.p_spans) 0 processes
    in
    Printf.printf "merged %d spans from %d processes into %s\n"
      spans (List.length processes) out
  in
  let term = Term.(const run $ out_arg $ inputs_arg) in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Fuse per-process trace files (shards + client) into one \
          Perfetto-loadable timeline: clocks are aligned via each file's \
          clock_sync anchor and cross-process parent/child span links \
          become flow arrows")
    term

let () =
  (* Fail malformed CONTENTION_JOBS here, once, with a clean message — not
     as an uncaught Invalid_argument from deep inside a sweep. *)
  (match Sys.getenv_opt "CONTENTION_JOBS" with
  | None -> ()
  | Some _ -> (
      match Exp.Pool.default_jobs () with
      | _ -> ()
      | exception Invalid_argument msg ->
          Printf.eprintf "contention: %s\n" msg;
          exit 2));
  let doc = "Probabilistic resource-contention performance estimation (DAC 2007)" in
  let info = Cmd.info "contention" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ generate_cmd; analyze_cmd; simulate_cmd; experiment_cmd; sweep_cmd;
            export_cmd; inspect_cmd; report_cmd; sensitivity_cmd; check_cmd;
            serve_cmd; query_cmd; stats_cmd; explain_cmd; loadgen_cmd;
            trace_merge_cmd ]))
