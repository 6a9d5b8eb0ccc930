(* The contention serve daemon: unit tests for the store, the LRU cache,
   the metrics and the protocol codecs, robustness of a live server against
   malformed input, and the end-to-end integration scenario — two
   concurrent clients driving upload → estimate (cache hit on the second) →
   admit → reject-victim → release → stats, with the served numbers agreeing
   bit-for-bit with direct Contention.Analysis calls, and a clean shutdown. *)

module Json = Serve.Json
module Protocol = Serve.Protocol

let small_workload () = Exp.Workload.make ~seed:7 ~num_apps:3 ~procs:2 ()

let unwrap = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected an error reply" what
  | Error (_ : string) -> ()

(* --- store ----------------------------------------------------------- *)

let test_store () =
  let s = Serve.Store.create () in
  let w = small_workload () in
  let d = Serve.Store.add s w in
  Alcotest.(check string) "digest is stable" d (Serve.Store.digest_of w);
  Alcotest.(check int) "one entry" 1 (Serve.Store.count s);
  (* Re-adding the same content lands on the same address. *)
  let w' = unwrap (Exp.Workload.of_string (Exp.Workload.to_string w)) in
  Alcotest.(check string) "content-addressed" d (Serve.Store.add s w');
  Alcotest.(check int) "still one entry" 1 (Serve.Store.count s);
  (match Serve.Store.find s d with
  | Some found ->
      Alcotest.(check string) "find returns the workload"
        (Exp.Workload.to_string w)
        (Exp.Workload.to_string found)
  | None -> Alcotest.fail "digest not found");
  (match Serve.Store.find s "feedfacefeedfacefeedfacefeedface" with
  | None -> ()
  | Some _ -> Alcotest.fail "bogus digest found");
  let other = Exp.Workload.make ~seed:8 ~num_apps:3 ~procs:2 () in
  if Serve.Store.add s other = d then
    Alcotest.fail "different workloads share a digest";
  Alcotest.(check int) "two entries" 2 (Serve.Store.count s)

(* --- lru ------------------------------------------------------------- *)

let test_lru () =
  (try
     ignore (Serve.Lru.create ~capacity:0 : (int, int) Serve.Lru.t);
     Alcotest.fail "capacity 0 accepted"
   with Invalid_argument _ -> ());
  let c = Serve.Lru.create ~capacity:2 in
  Alcotest.(check (option int)) "miss on empty" None (Serve.Lru.find c "a");
  Serve.Lru.put c "a" 1;
  Serve.Lru.put c "b" 2;
  Alcotest.(check (option int)) "hit a" (Some 1) (Serve.Lru.find c "a");
  (* "b" is now least-recently-used; inserting "c" evicts it. *)
  Serve.Lru.put c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Serve.Lru.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Serve.Lru.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Serve.Lru.find c "c");
  Serve.Lru.put c "c" 33;
  Alcotest.(check (option int)) "refresh in place" (Some 33)
    (Serve.Lru.find c "c");
  Alcotest.(check int) "length" 2 (Serve.Lru.length c);
  Alcotest.(check int) "capacity" 2 (Serve.Lru.capacity c);
  Alcotest.(check int) "hits" 4 (Serve.Lru.hits c);
  Alcotest.(check int) "misses" 2 (Serve.Lru.misses c)

(* --- metrics --------------------------------------------------------- *)

let test_metrics () =
  let m = Serve.Metrics.create () in
  let s0 = Serve.Metrics.snapshot m in
  Alcotest.(check int) "no requests yet" 0 s0.requests_total;
  Alcotest.(check (float 0.)) "latency zero before requests" 0.
    s0.latency_mean_us;
  Serve.Metrics.incr_connections m;
  for _ = 1 to 10 do
    Serve.Metrics.record m ~cmd:"estimate" ~latency_s:1e-3
  done;
  Serve.Metrics.record m ~cmd:"ping" ~latency_s:11e-3;
  Serve.Metrics.record_admission_verdict m (Protocol.Admitted { throughput = 1.; margin = None });
  Serve.Metrics.record_admission_verdict m
    (Protocol.Rejected_victim { victim = "A"; estimated = 0.; required = 1. });
  Serve.Metrics.incr_released m;
  let s = Serve.Metrics.snapshot m in
  Alcotest.(check int) "connections" 1 s.connections;
  Alcotest.(check int) "total" 11 s.requests_total;
  Alcotest.(check (list (pair string int)))
    "per-command counters"
    [ ("estimate", 10); ("ping", 1) ]
    s.requests;
  Alcotest.(check int) "admitted" 1 s.admitted;
  Alcotest.(check int) "rejected victim" 1 s.rejected_victim;
  Alcotest.(check int) "released" 1 s.released;
  Alcotest.(check int) "samples" 11 s.latency_samples;
  Fixtures.check_float ~eps:1e-6 "mean"
    ((10. *. 1000.) +. 11_000.) (s.latency_mean_us *. 11.);
  Fixtures.check_float ~eps:1e-6 "p50" 1000. s.latency_p50_us;
  Fixtures.check_float ~eps:1e-6 "max" 11_000. s.latency_max_us;
  if s.latency_p99_us < s.latency_p50_us then
    Alcotest.fail "p99 below p50"

(* --- protocol codecs ------------------------------------------------- *)

let test_protocol_roundtrip () =
  let requests =
    [
      Protocol.Ping;
      Protocol.Upload { payload = "line1\nline2\n" };
      Protocol.Estimate
        { digest = "abc"; usecase = None; estimator = Contention.Analysis.Order 2 };
      Protocol.Estimate
        {
          digest = "abc";
          usecase = Some [ "A"; "C" ];
          estimator = Contention.Analysis.Exact;
        };
      Protocol.Admit
        {
          session = "s";
          digest = "abc";
          app = "A";
          min_throughput = 0.25;
          confidence = None;
          margin_method = None;
        };
      Protocol.Admit
        {
          session = "s";
          digest = "abc";
          app = "A";
          min_throughput = 0.25;
          confidence = Some 0.95;
          margin_method = Some Contention.Margin.Quantile;
        };
      Protocol.Release { session = "s"; app = "A" };
      Protocol.Stats;
      Protocol.Metrics;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      let j = Protocol.request_to_json r in
      (* Through the actual wire representation, not just the tree. *)
      match Json.of_string (Json.to_string j) with
      | Error e -> Alcotest.failf "wire reparse: %s" e
      | Ok j' -> (
          match Protocol.request_of_json j' with
          | Ok r' when r = r' -> ()
          | Ok _ -> Alcotest.fail "request changed in flight"
          | Error e -> Alcotest.failf "request_of_json: %s" e))
    requests;
  let verdicts =
    [
      Protocol.Admitted { throughput = 0.1; margin = None };
      Protocol.Rejected_candidate { estimated = 0.1; required = 0.2 };
      Protocol.Rejected_victim { victim = "B"; estimated = 0.1; required = 0.2 };
    ]
  in
  List.iter
    (fun v ->
      match Protocol.verdict_of_json (Protocol.verdict_to_json v) with
      | Ok v' when v = v' -> ()
      | Ok _ -> Alcotest.fail "verdict changed in flight"
      | Error e -> Alcotest.failf "verdict_of_json: %s" e)
    verdicts

let test_estimator_names () =
  let ok name expected =
    match Protocol.estimator_of_string name with
    | Ok e when e = expected -> ()
    | Ok _ -> Alcotest.failf "%S resolved to the wrong estimator" name
    | Error e -> Alcotest.failf "%S: %s" name e
  in
  ok "worst-case" Contention.Analysis.Worst_case;
  ok "wc" Contention.Analysis.Worst_case;
  ok "second-order" (Contention.Analysis.Order 2);
  ok "o2" (Contention.Analysis.Order 2);
  ok "o4" (Contention.Analysis.Order 4);
  ok "6" (Contention.Analysis.Order 6);
  ok "order-8" (Contention.Analysis.Order 8);
  ok "comp" Contention.Analysis.Composability;
  ok "exact" Contention.Analysis.Exact;
  List.iter
    (fun bad ->
      match Protocol.estimator_of_string bad with
      | Error (_ : string) -> ()
      | Ok _ -> Alcotest.failf "%S accepted" bad)
    [ "1"; "0"; "-2"; "garbage"; "" ]

(* --- live-server helpers --------------------------------------------- *)

let with_server ?(cache_capacity = 16) ?(max_line = 64 * 1024) f =
  let config =
    {
      Serve.Server.default_config with
      port = Some 0;
      unix_path = None;
      jobs = Some 2;
      cache_capacity;
      max_line;
    }
  in
  let server = Serve.Server.start ~config () in
  let port = Option.get (Serve.Server.tcp_port server) in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) (fun () -> f server port)

let with_client port f =
  let c = unwrap (Serve.Client.connect ~port ()) in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

(* A raw TCP connection for speaking deliberately broken protocol. *)
let with_raw_conn port f =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
      f fd)

let raw_roundtrip fd line =
  Serve.Wire.write_line fd line;
  match Serve.Wire.read_frame (Serve.Wire.reader fd) with
  | Serve.Wire.Line reply -> reply
  | Serve.Wire.Eof -> Alcotest.fail "connection dropped instead of replying"
  | Serve.Wire.Too_long -> Alcotest.fail "oversized reply"

let expect_error_reply what reply =
  match Json.of_string reply with
  | Ok (Json.Obj kvs) when List.mem_assoc "error" kvs -> ()
  | _ -> Alcotest.failf "%s: expected an error reply, got %s" what reply

(* --- robustness: a misbehaving client gets error replies, the server
   lives on ------------------------------------------------------------ *)

let test_robustness () =
  with_server ~max_line:4096 (fun _server port ->
      with_raw_conn port (fun fd ->
          expect_error_reply "malformed JSON" (raw_roundtrip fd "not json{");
          expect_error_reply "non-object frame" (raw_roundtrip fd "[1,2]");
          expect_error_reply "missing cmd" (raw_roundtrip fd {|{"x": 1}|});
          expect_error_reply "unknown command"
            (raw_roundtrip fd {|{"cmd": "frobnicate"}|});
          expect_error_reply "wrong field type"
            (raw_roundtrip fd {|{"cmd": "upload", "payload": 42}|});
          expect_error_reply "unknown digest"
            (raw_roundtrip fd
               {|{"cmd": "estimate", "digest": "deadbeef", "estimator": "o2"}|});
          expect_error_reply "bad estimator"
            (raw_roundtrip fd
               {|{"cmd": "estimate", "digest": "deadbeef", "estimator": "o3"}|});
          (* A truncated Workload.save payload is a protocol error, not a
             crash. *)
          let payload = Exp.Workload.to_string (small_workload ()) in
          let truncated =
            String.sub payload 0 (String.length payload / 2)
          in
          let request =
            Json.to_string
              (Protocol.request_to_json
                 (Protocol.Upload { payload = truncated }))
          in
          expect_error_reply "truncated workload payload"
            (raw_roundtrip fd request));
      (* Oversized frame: error reply, then the connection is dropped —
         but only that connection. *)
      with_raw_conn port (fun fd ->
          expect_error_reply "oversized line"
            (raw_roundtrip fd (String.make 8192 'x')));
      (* The server survived all of the above. *)
      with_client port (fun c -> unwrap (Serve.Client.ping c)))

let test_release_errors () =
  with_server (fun _server port ->
      with_client port (fun c ->
          let payload = Exp.Workload.to_string (small_workload ()) in
          let up = unwrap (Serve.Client.upload c ~payload) in
          expect_error "release before any admit"
            (Serve.Client.release c ~app:"A" ());
          (match
             Serve.Client.admit c ~digest:up.Protocol.digest ~app:"A"
               ~min_throughput:0. ()
           with
          | Ok (Protocol.Admitted _) -> ()
          | Ok _ -> Alcotest.fail "A not admitted into an empty session"
          | Error e -> Alcotest.failf "admit: %s" e);
          expect_error "double admit"
            (Serve.Client.admit c ~digest:up.Protocol.digest ~app:"A"
               ~min_throughput:0. ());
          expect_error "release of an unknown app"
            (Serve.Client.release c ~app:"Z" ());
          unwrap (Serve.Client.release c ~app:"A" ())))

(* --- the integration scenario ---------------------------------------- *)

(* Direct estimates for the full use-case, for the bit-for-bit check. *)
let local_rows w estimator =
  let mask = Contention.Usecase.full ~napps:(Exp.Workload.num_apps w) in
  List.map
    (fun (r : Contention.Analysis.estimate) ->
      (r.for_app.graph.Sdf.Graph.name, r.period, Contention.Analysis.throughput r))
    (Contention.Analysis.estimate estimator (Exp.Workload.analysis_apps w mask))

let check_rows_bitwise ~what local (reply : Protocol.estimate_reply) =
  Alcotest.(check int)
    (what ^ ": row count") (List.length local)
    (List.length reply.rows);
  List.iter2
    (fun (name, period, tp) (row : Protocol.estimate_row) ->
      Alcotest.(check string) (what ^ ": app order") name row.Protocol.app;
      if Int64.bits_of_float period <> Int64.bits_of_float row.Protocol.period
      then
        Alcotest.failf "%s: period of %s differs: %h vs %h" what name period
          row.Protocol.period;
      if
        Int64.bits_of_float tp
        <> Int64.bits_of_float row.Protocol.throughput
      then Alcotest.failf "%s: throughput of %s differs" what name)
    local reply.rows

(* One client's session: upload, estimate twice (second must be cached and
   identical), admit with a floor just under the achieved throughput, push a
   second app in until someone is rejected as a victim, release, stats.
   Runs concurrently with the other client on a distinct session and a
   distinct estimator (hence distinct cache keys, so cached=false then
   cached=true is deterministic per client). *)
let client_scenario ~port ~session ~estimator w () =
  with_client port (fun c ->
      unwrap (Serve.Client.ping c);
      let payload = Exp.Workload.to_string w in
      let up = unwrap (Serve.Client.upload c ~payload) in
      let digest = up.Protocol.digest in
      Alcotest.(check string) "digest" (Serve.Store.digest_of w) digest;
      Alcotest.(check int) "procs" w.Exp.Workload.procs up.Protocol.procs;
      let e1 = unwrap (Serve.Client.estimate c ~digest ~estimator ()) in
      if e1.Protocol.cached then
        Alcotest.fail "first estimate claims to be cached";
      let e2 = unwrap (Serve.Client.estimate c ~digest ~estimator ()) in
      if not e2.Protocol.cached then
        Alcotest.fail "second estimate missed the cache";
      check_rows_bitwise ~what:"cached reply" (local_rows w estimator) e2;
      check_rows_bitwise ~what:"first reply" (local_rows w estimator) e1;
      (* Admission: A alone is comfortable; pin its requirement just below
         what it achieves alone, then admitting the others must eventually
         reject a candidate because A would become a victim. *)
      let tp_a =
        match
          Serve.Client.admit c ~session ~digest ~app:"A" ~min_throughput:0. ()
        with
        | Ok (Protocol.Admitted { throughput; _ }) -> throughput
        | Ok _ -> Alcotest.fail "A rejected from an empty session"
        | Error e -> Alcotest.failf "admit A: %s" e
      in
      unwrap (Serve.Client.release c ~session ~app:"A" ());
      (match
         Serve.Client.admit c ~session ~digest ~app:"A"
           ~min_throughput:(tp_a *. 0.999) ()
       with
      | Ok (Protocol.Admitted _) -> ()
      | Ok _ -> Alcotest.fail "A rejected at its own solo throughput"
      | Error e -> Alcotest.failf "re-admit A: %s" e);
      let rec push_until_victim = function
        | [] -> Alcotest.fail "no admission ever named A as victim"
        | app :: rest -> (
            match
              Serve.Client.admit c ~session ~digest ~app ~min_throughput:0. ()
            with
            | Ok (Protocol.Rejected_victim { victim; estimated; required }) ->
                Alcotest.(check string) "victim is A" "A" victim;
                if estimated >= required then
                  Alcotest.fail "victim estimate not below its requirement"
            | Ok (Protocol.Admitted _) -> push_until_victim rest
            | Ok (Protocol.Rejected_candidate _) -> push_until_victim rest
            | Error e -> Alcotest.failf "admit %s: %s" app e)
      in
      push_until_victim [ "B"; "C" ];
      unwrap (Serve.Client.release c ~session ~app:"A" ()))

let test_integration () =
  let w = small_workload () in
  with_server (fun server port ->
      (* Two concurrent clients on separate sessions and estimators. *)
      let doms =
        [
          Domain.spawn
            (client_scenario ~port ~session:"alpha"
               ~estimator:(Contention.Analysis.Order 2) w);
          Domain.spawn
            (client_scenario ~port ~session:"beta"
               ~estimator:(Contention.Analysis.Order 4) w);
        ]
      in
      List.iter Domain.join doms;
      with_client port (fun c ->
          let s = unwrap (Serve.Client.stats c) in
          Alcotest.(check int) "one workload stored" 1 s.Protocol.workloads;
          Alcotest.(check int) "two sessions live" 2 s.Protocol.sessions;
          (* Each client: one miss then one hit on its own cache key. *)
          Alcotest.(check int) "cache entries" 2 s.Protocol.cache_entries;
          Alcotest.(check int) "cache hits" 2 s.Protocol.cache_hits;
          Alcotest.(check int) "cache misses" 2 s.Protocol.cache_misses;
          Fixtures.check_float ~eps:1e-9 "hit rate" 0.5
            (Protocol.cache_hit_rate s);
          if s.Protocol.rejected_victim < 2 then
            Alcotest.failf "expected 2 victim rejections, saw %d"
              s.Protocol.rejected_victim;
          Alcotest.(check int) "released" 4 s.Protocol.released;
          (* Each scenario client issues at least 9 requests; the stats
             snapshot precedes the recording of the stats request itself. *)
          if s.Protocol.requests_total < 18 then
            Alcotest.fail "request counter implausibly low";
          if s.Protocol.latency_samples <> s.Protocol.requests_total then
            Alcotest.fail "every request must be timed";
          Alcotest.(check int) "worker pool size" 2 s.Protocol.workers;
          (* The connection asking for stats is itself being served. *)
          if s.Protocol.active_connections < 1 then
            Alcotest.fail "the stats connection must count as active";
          if Protocol.pool_occupancy s <= 0. then
            Alcotest.fail "pool occupancy must be positive";
          (* The Prometheus exposition over the wire carries the per-command
             counters and latency histograms. *)
          let m = unwrap (Serve.Client.metrics c) in
          let contains needle =
            let hay = m.Protocol.prometheus in
            let nh = String.length needle and nl = String.length hay in
            let rec at i = i + nh <= nl
              && (String.sub hay i nh = needle || at (i + 1)) in
            if not (at 0) then
              Alcotest.failf "metrics exposition lacks %S:\n%s" needle hay
          in
          contains "# TYPE contention_serve_requests_total counter";
          contains "contention_serve_requests_total{cmd=\"estimate\"} 4";
          contains "# TYPE contention_serve_request_seconds histogram";
          contains "contention_serve_request_seconds_bucket{cmd=\"estimate\",le=\"+Inf\"} 4";
          contains "contention_serve_request_seconds_count{cmd=\"estimate\"} 4";
          contains "contention_serve_cache_hits_total 2";
          contains "contention_serve_cache_misses_total 2";
          contains "contention_serve_workers 2";
          (* A client shutdown request flips the flag the serve loop polls. *)
          if Serve.Server.shutdown_requested server then
            Alcotest.fail "shutdown flag set early";
          unwrap (Serve.Client.shutdown c);
          if not (Serve.Server.shutdown_requested server) then
            Alcotest.fail "shutdown flag not set"));
  (* with_server's finally already ran stop; a second stop must be a
     no-op. *)
  ()

let test_graceful_stop_with_idle_client () =
  let w = small_workload () in
  with_server (fun server port ->
      let c = unwrap (Serve.Client.connect ~port ()) in
      let payload = Exp.Workload.to_string w in
      ignore (unwrap (Serve.Client.upload c ~payload) : Protocol.upload_reply);
      (* The client now sits idle on an open connection; stop () must not
         wait for it to hang up. *)
      Serve.Server.stop server;
      Serve.Client.close c)

(* --- reply bytes and the cache-hit path's allocation ------------------ *)

let handle server request =
  Serve.Server.handle_line server
    (Json.to_string (Protocol.request_to_json request))

let upload_in_process server w =
  let reply =
    handle server (Protocol.Upload { payload = Exp.Workload.to_string w })
  in
  match Result.bind (Json.of_string reply) Protocol.unwrap_reply with
  | Ok payload -> (unwrap (Protocol.upload_reply_of_json payload)).digest
  | Error e -> Alcotest.failf "upload: %s" e

let direct_rows w mask estimator =
  List.map
    (fun (r : Contention.Analysis.estimate) ->
      {
        Protocol.app = r.for_app.graph.Sdf.Graph.name;
        period = r.period;
        isolation_period = r.for_app.isolation_period;
        throughput = Contention.Analysis.throughput r;
      })
    (Contention.Analysis.estimate estimator (Exp.Workload.analysis_apps w mask))

(* A miss, a hit and a replicated (cache-put) entry each reply with exactly
   the bytes the plain codec prints for the same rows, under every paper
   estimator: the pre-encoded rows a cache entry keeps change no byte. *)
let test_reply_lines () =
  let w = small_workload () in
  let names = Exp.Workload.names w in
  with_server (fun server _port ->
      let digest = upload_in_process server w in
      List.iter
        (fun estimator ->
          let name = Protocol.estimator_to_string estimator in
          let expected ~cached rows =
            Json.to_string
              (Protocol.ok
                 (Protocol.estimate_reply_to_json
                    { Protocol.cached; estimator = name; rows }))
          in
          let estimate usecase =
            handle server (Protocol.Estimate { digest; usecase; estimator })
          in
          let full = Contention.Usecase.full ~napps:(Array.length names) in
          let rows = direct_rows w full estimator in
          Alcotest.(check string)
            (name ^ ": miss") (expected ~cached:false rows) (estimate None);
          Alcotest.(check string)
            (name ^ ": hit") (expected ~cached:true rows) (estimate None);
          (* A use-case this server never computed, installed by a peer. *)
          let mask = Contention.Usecase.of_list [ 0; 2 ] in
          let rows = direct_rows w mask estimator in
          (match
             Result.bind
               (Json.of_string
                  (handle server
                     (Protocol.Cache_put { digest; mask; estimator = name; rows })))
               Protocol.unwrap_reply
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s: cache-put: %s" name e);
          Alcotest.(check string)
            (name ^ ": cache-put entry") (expected ~cached:true rows)
            (estimate (Some [ names.(0); names.(2) ])))
        Contention.Analysis.all_paper_estimators)

(* A single actor of execution time 1e7 has period 1e7, past the point
   (~4.5e6) where the ulp exceeds the period search's 1e-9 tolerance; the
   kernel's bisection once spun for ever there, pinning the worker.  Every
   estimator must reply, with the list-based path's periods. *)
let test_huge_times_estimate () =
  let payload =
    "# contention-workload procs=1 seed=0\ngraph \"big\"\nactor s0 10000000\n\
     channel s0 -> s0 produce 1 consume 1 tokens 1\n"
  in
  let w =
    match Exp.Workload.of_string payload with
    | Ok w -> w
    | Error e -> Alcotest.failf "workload: %s" e
  in
  with_server (fun server _port ->
      let digest = upload_in_process server w in
      List.iter
        (fun estimator ->
          let name = Protocol.estimator_to_string estimator in
          let rows = direct_rows w (Contention.Usecase.full ~napps:1) estimator in
          Alcotest.(check string) name
            (Json.to_string
               (Protocol.ok
                  (Protocol.estimate_reply_to_json
                     { Protocol.cached = false; estimator = name; rows })))
            (handle server (Protocol.Estimate { digest; usecase = None; estimator })))
        Contention.Analysis.all_paper_estimators)

(* Minor words one cache hit allocates in [handle_line], for a fixed 7-app
   use-case: a count, not a time, so it is stable on any machine.  Before
   hits reused their encoded rows a hit took 3,171 words, most of them
   float formatting; the budget is half of that, so formatting the rows on
   every hit again fails it. *)
let hit_words_budget = 1585.

let test_hit_allocation () =
  let w = Exp.Workload.make ~seed:2007 () in
  let names = Exp.Workload.names w in
  with_server (fun server _port ->
      let digest = upload_in_process server w in
      let line =
        Json.to_string
          (Protocol.request_to_json
             (Protocol.Estimate
                {
                  digest;
                  usecase = Some (List.init 7 (Array.get names));
                  estimator = Contention.Analysis.Composability;
                }))
      in
      (* The first request misses and fills the entry; the rest warm up. *)
      for _ = 1 to 100 do
        ignore (Serve.Server.handle_line server line : string)
      done;
      let hits = 1000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to hits do
        ignore (Sys.opaque_identity (Serve.Server.handle_line server line))
      done;
      let per_hit = (Gc.minor_words () -. w0) /. float_of_int hits in
      (match
         Result.bind
           (Json.of_string (Serve.Server.handle_line server line))
           Protocol.unwrap_reply
       with
      | Ok payload when (unwrap (Protocol.estimate_reply_of_json payload)).cached
        -> ()
      | Ok _ -> Alcotest.fail "the measured requests were not cache hits"
      | Error e -> Alcotest.failf "estimate: %s" e);
      if per_hit >= hit_words_budget then
        Alcotest.failf "a cache hit allocates %.0f minor words (budget %.0f)"
          per_hit hit_words_budget)

let suite =
  [
    Alcotest.test_case "store" `Quick test_store;
    Alcotest.test_case "lru" `Quick test_lru;
    Alcotest.test_case "metrics" `Quick test_metrics;
    Alcotest.test_case "protocol round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "estimator names" `Quick test_estimator_names;
    Alcotest.test_case "robustness" `Quick test_robustness;
    Alcotest.test_case "admission errors" `Quick test_release_errors;
    Alcotest.test_case "integration" `Quick test_integration;
    Alcotest.test_case "graceful stop, idle client" `Quick
      test_graceful_stop_with_idle_client;
    Alcotest.test_case "reply lines match the codec" `Quick test_reply_lines;
    Alcotest.test_case "estimate at huge execution times" `Quick
      test_huge_times_estimate;
    Alcotest.test_case "cache-hit allocation" `Quick test_hit_allocation;
  ]
