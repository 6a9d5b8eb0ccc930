(* perfbench: the repository benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (estimate-sweep, simulate-sweep or serve-mix; see
   README.md), checks its outputs, prints a provenance line and, as the last
   line of standard output, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 when any
   output check failed. *)

open Common

let workloads =
  [
    ("estimate-sweep", Estimate_sweep.run);
    ("simulate-sweep", Simulate_sweep.run);
    ("serve-mix", Serve_mix.run);
  ]

(* The end-to-end metrics of BENCHMARK.json, in report order. *)
let e2e_names =
  [
    "ops_per_s"; "op_p50_us"; "op_p99_us"; "setup_s"; "peak_rss_mb";
    "err_pct.worst-case"; "err_pct.fourth-order"; "err_pct.second-order"; "err_pct.composability";
  ]

(* Every per-layer metric, in report order.  A workload that does not
   measure a layer reports it as 0 (see README.md for which measures what). *)
let layer_names =
  [
    ("prepare.us_per_app", "us");
    ("waiting.ns_per_usecase", "ns");
    ("waiting.groups", "count");
    ("period.ns_per_call", "ns");
    ("period.calls", "count");
    ("kernel.minor_words_per_usecase", "count");
    ("desim.ns_per_firing", "ns");
    ("desim.firings", "count");
    ("desim.minor_words_per_firing", "count");
    ("desim.minor_collections", "count");
    ("sweep.simulation_share_pct", "%");
    ("sweep.analysis_share_pct", "%");
    ("admission.admit_us", "us");
    ("admission.withdraw_us", "us");
    ("serve.decode_us", "us");
    ("serve.handle_us", "us");
    ("serve.encode_us", "us");
    ("serve.wire_us", "us");
    ("serve.miss_us", "us");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.prefix_hits", "count");
    ("serve.prefix_misses", "count");
    ("unattributed_pct", "%");
    ("trace_overhead_pct", "%");
    ("op_failed_pct", "%");
  ]

(* The revision measured: [PERFBENCH_REV] if set, else [git rev-parse HEAD]
   in a git checkout.  Otherwise it is unknown: the run says so loudly on
   stderr and records "unknown", but still measures, because a checkout
   exported without its git metadata is an ordinary place to run it. *)
let revision () =
  match Sys.getenv_opt "PERFBENCH_REV" with
  | Some r when r <> "" -> (r, "env PERFBENCH_REV")
  | _ when Sys.file_exists ".git" -> (
      let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some r -> (String.trim r, "git rev-parse HEAD")
      | _ -> failwith "perfbench: git rev-parse HEAD failed; set PERFBENCH_REV")
  | _ ->
      prerr_endline
        "perfbench: WARNING: revision unknown (no PERFBENCH_REV, no .git); recorded as \"unknown\"";
      ("unknown", "none: set PERFBENCH_REV")

(* CPU time the hypervisor gave to other guests, in clock ticks (USER_HZ,
   100 on Linux): the steal column of /proc/stat.  Reported so that a
   disturbed run can be told from a slow program. *)
let steal_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          Option.value ~default:0 (int_of_string_opt steal)
      | _ -> 0)
  | None -> 0
  | exception Sys_error _ -> 0

let usage () =
  prerr_endline
    "usage: perfbench --workload (estimate-sweep|simulate-sweep|serve-mix) --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run, seed, seconds, trace =
    match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
    | Some r, Some s, Some t, Some tr when t > 0. -> (r, s, t, tr)
    | _ -> usage ()
  in
  let rev, rev_source = revision () in
  let steal0 = steal_ticks () and t0 = now () in
  let r = run ~seed ~seconds ~trace in
  let steal_pct =
    100. *. float_of_int (steal_ticks () - steal0) /. 100.
    /. (seconds_since t0 *. float_of_int (Domain.recommended_domain_count ()))
  in
  let failed_pct = 100. *. float_of_int r.checks.failed /. float_of_int (Int.max 1 r.attempted) in
  let all_layers =
    List.map
      (fun (name, unit_) ->
        if name = "op_failed_pct" then
          metric name unit_ failed_pct
            ~prov:[ ("failed", int r.checks.failed); ("attempted", int r.attempted) ]
        else
          match List.find_opt (fun m -> m.name = name) r.layers with
          | Some m -> m
          | None ->
              metric name unit_ 0. ~prov:[ ("note", Json.Str "not measured on this workload") ])
      layer_names
  in
  let measured = r.e2e @ [ metric "peak_rss_mb" "MB" (peak_rss_mb ()) ] in
  let e2e =
    List.map
      (fun name ->
        match List.find_opt (fun m -> m.name = name) measured with
        | Some m -> m
        | None -> failwith ("perfbench: the workload did not measure " ^ name))
      e2e_names
  in
  (* Times at the reference host speed: durations divided by the run's
     host-speed index, rates multiplied by it; the raw value stays in the
     provenance line. *)
  let host = Calib.index () in
  let at_reference m =
    let scaled =
      match m.unit_ with
      | "s" | "ms" | "us" | "ns" -> Some (m.value /. host)
      | "1/s" -> Some (m.value *. host)
      | _ -> None
    in
    match scaled with
    | Some v when not m.scaled ->
        { m with value = v; prov = ("raw", num m.value) :: m.prov; scaled = true }
    | _ -> m
  in
  let e2e = List.map at_reference e2e and all_layers = List.map at_reference all_layers in
  let reported = if trace then all_layers else e2e in
  let correct = r.checks.failed = 0 in
  let prov_of m =
    (m.name, Json.Obj (("value", num m.value) :: ("unit", Json.Str m.unit_) :: m.prov))
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "provenance",
              Json.Obj
                [
                  ("workload", Json.Str !workload);
                  ("rev", Json.Str rev);
                  ("rev_source", Json.Str rev_source);
                  ("seed", int seed);
                  ("workload_seed", int workload_seed);
                  ("seconds", num seconds);
                  ("trace", Json.Bool trace);
                  ("nproc", int (Domain.recommended_domain_count ()));
                  ("ocaml", Json.Str Sys.ocaml_version);
                  ("clock", Json.Str Obs.Clock.source);
                  ("host_steal_pct", num steal_pct);
                  ( "host_speed_index",
                    Json.Obj
                      [
                        ("value", num host);
                        ("samples", int (Fbuf.length Calib.samples));
                        ("kernel", Json.Str (Calib.kind_name ()));
                        ("reference_ns", num (Calib.reference_ns ()));
                      ] );
                  ("failures", Json.Arr (List.rev_map (fun s -> Json.Str s) r.checks.messages));
                  ("metrics", Json.Obj (List.map prov_of (e2e @ if trace then all_layers else [])));
                ] );
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", int r.attempted);
            ("failed", int r.checks.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun m ->
                     (m.name, Json.Obj [ ("value", num m.value); ("unit", Json.Str m.unit_) ]))
                   reported) );
          ]));
  if not correct then begin
    List.iter
      (fun s -> prerr_endline ("perfbench: check failed: " ^ s))
      (List.rev r.checks.messages);
    exit 1
  end
