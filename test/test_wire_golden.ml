(* Wire bytes pinned.  Every request constructor (with and without each
   optional field, with a trace envelope), every reply shape (the Explain
   record of a paper use-case included), the decoded value of lenient
   inputs and the error text of faulty ones, each against a literal string
   the protocol printed before its codecs became declarations.  Any change
   to a byte the daemon speaks fails here. *)

module P = Serve.Protocol
module J = Serve.Json
module A = Contention.Analysis

let line = J.to_string

(* A decoded request, shown as what it re-encodes to. *)
let decoded s =
  match J.of_string s with
  | Error e -> "bad frame: " ^ e
  | Ok j -> (
      match P.request_of_json j with
      | Ok r -> "ok " ^ line (P.request_to_json r)
      | Error e -> "error " ^ e)

let shown to_json = function
  | Ok v -> "ok " ^ line (to_json v)
  | Error e -> "error " ^ e

let reply_of of_json to_json s =
  match J.of_string s with
  | Error e -> "bad frame: " ^ e
  | Ok j -> shown to_json (of_json j)

let digest = "0123456789abcdef0123456789abcdef"

let row app period isolation_period =
  { P.app; period; isolation_period; throughput = 1. /. period }

let rows = [ row "A" (1000. /. 3.) 250.; row "B" 1234.5 1e-7 ]

let trace sampled =
  { Obs.Span.trace_id = 0x0123456789abcdefL; parent_span = 0xfedcba9876543210L; sampled }

let margin =
  {
    Contention.Margin.confidence = 0.95;
    method_ = Contention.Margin.Z_score;
    period = 120.5;
    lo = 110.25;
    hi = 131.;
    mean = 120.;
    std = 5.125;
    samples = 400;
  }

let stats =
  {
    P.uptime_s = 12.5;
    connections = 7;
    requests = [ ("ping", 2); ("estimate", 40); ("admit", 3) ];
    requests_total = 45;
    workloads = 1;
    sessions = 2;
    cache_entries = 9;
    cache_capacity = 256;
    cache_hits = 31;
    cache_misses = 9;
    active_connections = 1;
    workers = 4;
    queue_capacity = 1024;
    shed = 0;
    admitted = 2;
    rejected_candidate = 1;
    rejected_victim = 0;
    released = 1;
    margins_served = 1;
    margin_mean_rel_width = 0.0625;
    latency_mean_us = 88.25;
    latency_p50_us = 40.;
    latency_p90_us = 210.5;
    latency_p99_us = 880.;
    latency_max_us = 1290.75;
    latency_samples = 45;
    slo_objective_ms = 50.;
    slo_target = 0.999;
    slo_burn_1m = 0.;
    slo_burn_1h = 1.5;
    audit =
      {
        P.audit_sample = 8;
        audit_submitted = 5;
        audit_completed = 4;
        audit_dropped = 1;
        audit_failed = 0;
        audit_mean_err = -0.015625;
        audit_max_abs_err = 0.125;
        audit_alarms = 1;
        audit_drifting = [ "second-order" ];
        audit_margin_checked = 1;
        audit_margin_missed = 0;
      };
  }

(* The explain record of use-case {A, B} of the paper's workload. *)
let explain est =
  let w = Exp.Workload.make () in
  Contention.Explain.compute est
    (Exp.Workload.analysis_apps w (Contention.Usecase.of_list [ 0; 1 ]))

let requests =
  [
    ("ping", P.Ping, None);
    ("upload", P.Upload { payload = "graph \"A\"\nactor a0 10\n\tétude \001" }, None);
    ( "estimate",
      P.Estimate { digest; usecase = None; estimator = A.Order 2 },
      None );
    ( "estimate usecase",
      P.Estimate { digest; usecase = Some [ "A"; "B" ]; estimator = A.Exact },
      None );
    ( "estimate empty usecase",
      P.Estimate { digest; usecase = Some []; estimator = A.Order 7 },
      None );
    ("explain", P.Explain { digest; usecase = None; estimator = A.Worst_case }, None);
    ( "explain usecase",
      P.Explain { digest; usecase = Some [ "B" ]; estimator = A.Composability },
      None );
    ( "admit",
      P.Admit
        {
          session = P.default_session;
          digest;
          app = "A";
          min_throughput = 0.25;
          confidence = None;
          margin_method = None;
        },
      None );
    ( "admit confidence",
      P.Admit
        {
          session = "s";
          digest;
          app = "A";
          min_throughput = 1e-9;
          confidence = Some 0.95;
          margin_method = None;
        },
      None );
    ( "admit confidence method",
      P.Admit
        {
          session = "s";
          digest;
          app = "B";
          min_throughput = 0.;
          confidence = Some 0.9;
          margin_method = Some Contention.Margin.Quantile;
        },
      None );
    ( "admit method",
      P.Admit
        {
          session = "s";
          digest;
          app = "B";
          min_throughput = 2.5;
          confidence = None;
          margin_method = Some Contention.Margin.Z_score;
        },
      None );
    ("release", P.Release { session = P.default_session; app = "A" }, None);
    ("release session", P.Release { session = "s"; app = "B" }, None);
    ( "cache-put",
      P.Cache_put { digest; mask = 5; estimator = "second-order"; rows },
      None );
    ( "cache-put empty",
      P.Cache_put { digest; mask = 1; estimator = "exact"; rows = [] },
      None );
    ("stats", P.Stats, None);
    ("metrics", P.Metrics, None);
    ("shutdown", P.Shutdown, None);
    ("ping traced", P.Ping, Some (trace true));
    ( "estimate traced",
      P.Estimate { digest; usecase = Some [ "A" ]; estimator = A.Order 4 },
      Some (trace false) );
  ]

(* Lenient, faulty and multi-fault request lines. *)
let request_lines =
  [
    {|{"cmd":"estimate","workload":"d"}|};
    {|{"cmd":"estimate","workload":"d","usecase":null,"estimator":null}|};
    {|{"cmd":"explain","workload":"d","estimator":" O4 "}|};
    {|{"cmd":"estimate","workload":"d","estimator":"6"}|};
    {|{"cmd":"estimate","workload":"d","estimator":"order-9"}|};
    {|{"cmd":"estimate","workload":"d","estimator":"order-1"}|};
    {|{"cmd":"estimate","workload":"d","estimator":"1"}|};
    {|{"cmd":"estimate","workload":"d","estimator":"bogus"}|};
    {|{"cmd":"estimate","workload":"d","usecase":["A",1]}|};
    {|{"cmd":"admit","workload":"d","app":"A","min_throughput":1,"session":null,"confidence":null,"margin_method":null}|};
    {|{"cmd":"admit","workload":"d","app":"A","min_throughput":-1}|};
    {|{"cmd":"admit","workload":"d","app":"A","min_throughput":-1,"confidence":2}|};
    {|{"cmd":"admit","workload":"d","app":"A","min_throughput":-1,"margin_method":"bogus"}|};
    {|{"cmd":"admit","app":7,"min_throughput":"x"}|};
    {|{"cmd":"release","app":"A"}|};
    {|{"cmd":"release","session":null,"app":"A","extra":[1,{}]}|};
    {|{"cmd":"ping","extra":1,"trace":{"id":"zz"}}|};
    {|{"cmd":"cache-put","workload":"d","mask":3,"estimator":"x","results":[{"app":"A","period":1,"isolation_period":2,"throughput":0.5,"extra":true}]}|};
    {|{"cmd":"cache-put","workload":"d","mask":-1,"estimator":"x","results":[1]}|};
    {|{"cmd":"cache-put","workload":"d","mask":-1,"estimator":"x","results":[{"app":1},{}]}|};
    {|{"cmd":"cache-put","workload":"d","mask":2.5,"estimator":"x","results":[]}|};
    {|{"cmd":"cache-put","workload":"d","mask":-1,"estimator":"x","results":[]}|};
    {|[{"cmd":"ping"}]|};
    {|"ping"|};
    {|{}|};
    {|{"cmd":42}|};
    {|{"cmd":null}|};
    {|{"cmd":"teleport"}|};
  ]

let stats_json = line (P.stats_reply_to_json stats)

(* Reply lines a client reads: older servers' shapes, mistyped blocks. *)
let stats_lines =
  let strip keys =
    match J.of_string stats_json with
    | Ok (J.Obj kvs) -> line (J.Obj (List.filter (fun (k, _) -> not (List.mem k keys)) kvs))
    | _ -> assert false
  in
  [
    strip [ "slo"; "audit" ];
    strip [ "cache" ];
    strip [ "uptime_s" ];
    {|{"uptime_s":1,"connections":0,"requests":{"total":3,"ping":2,"bad":"x","half":0.5},"workloads":0,"sessions":0,"cache":{"entries":0,"capacity":1,"hits":0,"misses":0},"pool":{"active_connections":0,"workers":1,"queue_capacity":0,"shed":0},"admission":{"admitted":0,"rejected_candidate":0,"rejected_victim":0,"released":0,"margins":"x"},"latency_us":{"mean":0,"p50":0,"p90":0,"p99":0,"max":0,"samples":0},"slo":"x","audit":{"sample":2.7,"failed":"x","drifting":[1],"mean_err":0.5}}|};
    {|{"uptime_s":1,"connections":0,"requests":5}|};
    {|{"uptime_s":1,"connections":0,"requests":{"ping":2}}|};
    {|{"uptime_s":1,"connections":0,"requests":{"total":0},"workloads":0,"sessions":0,"cache":null}|};
    {|{"uptime_s":1,"connections":0,"requests":{"total":0},"workloads":0,"sessions":0,"cache":{"entries":0,"capacity":1,"hits":0,"misses":0},"pool":{"active_connections":0,"workers":1,"queue_capacity":0,"shed":0},"admission":{"admitted":0,"rejected_candidate":0,"rejected_victim":0,"released":0},"latency_us":{"mean":0,"p50":0,"p90":0,"p99":0,"max":0,"samples":0},"audit":null}|};
  ]

let verdict_lines =
  [
    {|{"verdict":"admitted","throughput":0.5,"margin":null}|};
    {|{"verdict":"admitted","throughput":0.5,"margin":{"confidence":0.9}}|};
    {|{"verdict":"admitted","throughput":0.5,"margin":{"confidence":0.9,"method":"bogus"}}|};
    {|{"verdict":"admitted","throughput":0.5,"margin":{"confidence":0.9,"method":"quantile","period":10,"lo":12,"hi":11,"mean":10,"std":1,"samples":5}}|};
    {|{"verdict":"rejected-victim","victim":"B","estimated":1}|};
    {|{"verdict":"maybe"}|};
    {|{"throughput":1}|};
  ]

let estimate_lines =
  [
    {|{"cached":false,"estimator":"exact","results":[]}|};
    {|{"cached":1,"estimator":"exact","results":[]}|};
    {|{"cached":true,"estimator":"exact","results":[1]}|};
    {|{"cached":true,"estimator":"exact","results":{}}|};
  ]

let explain_lines =
  [
    {|{"estimator":"o2","engine":"mcm","usecase":["A"],"apps":[]}|};
    {|{"estimator":"o2","engine":"mcm","usecase":["A",2],"apps":[]}|};
    {|{"estimator":"o2","engine":"mcm","usecase":[],"apps":[{"app":"A","isolation_period":1,"period":2,"contention_factor":2,"throughput":0.5,"actors":[{"actor":0,"name":"a","proc":0,"exec":1,"p":0,"mu":0,"contenders":[],"wait":0,"response":1}]}]}|};
    {|{"estimator":"o2","engine":"mcm","usecase":[],"apps":[{"app":"A","isolation_period":1,"period":2,"contention_factor":2,"throughput":0.5,"actors":[{"actor":0,"name":"a","proc":0,"exec":1,"p":0,"mu":0,"contenders":[],"fold":null,"wait":0,"response":1}]}]}|};
    {|{"estimator":"o2","engine":"mcm","usecase":[],"apps":[{"app":"A","isolation_period":1,"period":2,"contention_factor":2,"throughput":0.5,"actors":[{"actor":0,"name":"a","proc":0,"exec":1,"p":0,"mu":0,"contenders":[],"sandwich":null,"wait":0,"response":1}]}]}|};
  ]

let reply_lines =
  [
    {|{"ok":{"x":1}}|};
    {|{"error":"boom"}|};
    {|{"shed":{"queue_depth":4}}|};
    {|{"shed":{}}|};
    {|{"error":5}|};
    {|{}|};
  ]

let classify s =
  match J.of_string s with
  | Error e -> "bad frame: " ^ e
  | Ok j -> (
      match P.classify_reply j with
      | P.Reply_ok p -> "ok " ^ line p
      | P.Reply_error e -> "error " ^ e
      | P.Reply_shed { queue_depth } -> Printf.sprintf "shed %d" queue_depth)

let observed () =
  List.map
    (fun (label, r, trace) -> ("request " ^ label, line (P.request_to_json ?trace r)))
    requests
  @ List.map (fun s -> ("decode " ^ s, decoded s)) request_lines
  @ [
      ( "upload reply",
        line (P.upload_reply_to_json { P.digest; apps = [ "A"; "B"; "C" ]; procs = 4 }) );
      ( "estimate reply",
        line (P.estimate_reply_to_json { P.cached = false; estimator = "second-order"; rows }) );
      ( "estimate reply cached",
        line
          (P.encoded_estimate_reply_to_json ~cached:true ~estimator:"second-order"
             (P.encode_results rows)) );
      ( "verdict admitted",
        line (P.verdict_to_json (P.Admitted { throughput = 0.0625; margin = None })) );
      ( "verdict admitted margin",
        line (P.verdict_to_json (P.Admitted { throughput = 1. /. 120.5; margin = Some margin })) );
      ( "verdict rejected-candidate",
        line (P.verdict_to_json (P.Rejected_candidate { estimated = 0.001; required = 0.5 })) );
      ( "verdict rejected-victim",
        line
          (P.verdict_to_json
             (P.Rejected_victim { victim = "C"; estimated = 1. /. 3.; required = 0.5 })) );
      ("stats reply", stats_json);
      ("metrics reply", line (P.metrics_reply_to_json { P.prometheus = "# HELP x y\nx 1\n" }));
      ("ok", line (P.ok (J.Obj [ ("stopping", J.Bool true) ])));
      ("error", line (P.error "bad request: missing field \"cmd\""));
      ("shed", line (P.shed ~queue_depth:3));
      ("explain o2", line (P.explain_reply_to_json (explain (A.Order 2))));
      ("explain comp", line (P.explain_reply_to_json (explain A.Composability)));
    ]
  @ List.map
      (fun s -> ("stats " ^ s, reply_of P.stats_reply_of_json P.stats_reply_to_json s))
      stats_lines
  @ List.map
      (fun s -> ("verdict " ^ s, reply_of P.verdict_of_json P.verdict_to_json s))
      verdict_lines
  @ List.map
      (fun s ->
        ("estimate " ^ s, reply_of P.estimate_reply_of_json P.estimate_reply_to_json s))
      estimate_lines
  @ List.map
      (fun s ->
        ("explain " ^ s, reply_of P.explain_reply_of_json P.explain_reply_to_json s))
      explain_lines
  @ List.map (fun s -> ("classify " ^ s, classify s)) reply_lines

(* ------------------------------------------------------------------ *)
(* The pins                                                            *)

let expected =
  [
    ( {|request ping|},
      {|{"cmd":"ping"}|} );
    ( {|request upload|},
      "{\"cmd\":\"upload\",\"workload\":\"graph \\\"A\\\"\\nactor a0 10\\n\\t\195\169tude \\u0001\"}" );
    ( {|request estimate|},
      {|{"cmd":"estimate","workload":"0123456789abcdef0123456789abcdef","estimator":"second-order"}|} );
    ( {|request estimate usecase|},
      {|{"cmd":"estimate","workload":"0123456789abcdef0123456789abcdef","usecase":["A","B"],"estimator":"exact"}|} );
    ( {|request estimate empty usecase|},
      {|{"cmd":"estimate","workload":"0123456789abcdef0123456789abcdef","usecase":[],"estimator":"order-7"}|} );
    ( {|request explain|},
      {|{"cmd":"explain","workload":"0123456789abcdef0123456789abcdef","estimator":"worst-case"}|} );
    ( {|request explain usecase|},
      {|{"cmd":"explain","workload":"0123456789abcdef0123456789abcdef","usecase":["B"],"estimator":"composability"}|} );
    ( {|request admit|},
      {|{"cmd":"admit","session":"default","workload":"0123456789abcdef0123456789abcdef","app":"A","min_throughput":0.25}|} );
    ( {|request admit confidence|},
      {|{"cmd":"admit","session":"s","workload":"0123456789abcdef0123456789abcdef","app":"A","min_throughput":1.0000000000000001e-09,"confidence":0.94999999999999996}|} );
    ( {|request admit confidence method|},
      {|{"cmd":"admit","session":"s","workload":"0123456789abcdef0123456789abcdef","app":"B","min_throughput":0,"confidence":0.90000000000000002,"margin_method":"quantile"}|} );
    ( {|request admit method|},
      {|{"cmd":"admit","session":"s","workload":"0123456789abcdef0123456789abcdef","app":"B","min_throughput":2.5,"margin_method":"z-score"}|} );
    ( {|request release|},
      {|{"cmd":"release","session":"default","app":"A"}|} );
    ( {|request release session|},
      {|{"cmd":"release","session":"s","app":"B"}|} );
    ( {|request cache-put|},
      {|{"cmd":"cache-put","workload":"0123456789abcdef0123456789abcdef","mask":5,"estimator":"second-order","results":[{"app":"A","period":333.33333333333331,"isolation_period":250,"throughput":0.0030000000000000001},{"app":"B","period":1234.5,"isolation_period":9.9999999999999995e-08,"throughput":0.00081004455245038481}]}|} );
    ( {|request cache-put empty|},
      {|{"cmd":"cache-put","workload":"0123456789abcdef0123456789abcdef","mask":1,"estimator":"exact","results":[]}|} );
    ( {|request stats|},
      {|{"cmd":"stats"}|} );
    ( {|request metrics|},
      {|{"cmd":"metrics"}|} );
    ( {|request shutdown|},
      {|{"cmd":"shutdown"}|} );
    ( {|request ping traced|},
      {|{"cmd":"ping","trace":{"id":"0123456789abcdef","parent":"fedcba9876543210","sampled":true}}|} );
    ( {|request estimate traced|},
      {|{"cmd":"estimate","workload":"0123456789abcdef0123456789abcdef","usecase":["A"],"estimator":"fourth-order","trace":{"id":"0123456789abcdef","parent":"fedcba9876543210","sampled":false}}|} );
    ( {|decode {"cmd":"estimate","workload":"d"}|},
      {|ok {"cmd":"estimate","workload":"d","estimator":"second-order"}|} );
    ( {|decode {"cmd":"estimate","workload":"d","usecase":null,"estimator":null}|},
      {|ok {"cmd":"estimate","workload":"d","estimator":"second-order"}|} );
    ( {|decode {"cmd":"explain","workload":"d","estimator":" O4 "}|},
      {|ok {"cmd":"explain","workload":"d","estimator":"fourth-order"}|} );
    ( {|decode {"cmd":"estimate","workload":"d","estimator":"6"}|},
      {|ok {"cmd":"estimate","workload":"d","estimator":"order-6"}|} );
    ( {|decode {"cmd":"estimate","workload":"d","estimator":"order-9"}|},
      {|ok {"cmd":"estimate","workload":"d","estimator":"order-9"}|} );
    ( {|decode {"cmd":"estimate","workload":"d","estimator":"order-1"}|},
      {|error estimator order must be >= 2, got 1|} );
    ( {|decode {"cmd":"estimate","workload":"d","estimator":"1"}|},
      {|error estimator order must be >= 2, got 1|} );
    ( {|decode {"cmd":"estimate","workload":"d","estimator":"bogus"}|},
      {|error unknown estimator "bogus"|} );
    ( {|decode {"cmd":"estimate","workload":"d","usecase":["A",1]}|},
      {|error field "usecase" has the wrong type|} );
    ( {|decode {"cmd":"admit","workload":"d","app":"A","min_throughput":1,"session":null,"confidence":null,"margin_method":null}|},
      {|ok {"cmd":"admit","session":"default","workload":"d","app":"A","min_throughput":1}|} );
    ( {|decode {"cmd":"admit","workload":"d","app":"A","min_throughput":-1}|},
      {|error min_throughput must be finite and non-negative|} );
    ( {|decode {"cmd":"admit","workload":"d","app":"A","min_throughput":-1,"confidence":2}|},
      {|error confidence must be in (0,1)|} );
    ( {|decode {"cmd":"admit","workload":"d","app":"A","min_throughput":-1,"margin_method":"bogus"}|},
      {|error unknown margin method "bogus"|} );
    ( {|decode {"cmd":"admit","app":7,"min_throughput":"x"}|},
      {|error missing field "workload"|} );
    ( {|decode {"cmd":"release","app":"A"}|},
      {|ok {"cmd":"release","session":"default","app":"A"}|} );
    ( {|decode {"cmd":"release","session":null,"app":"A","extra":[1,{}]}|},
      {|ok {"cmd":"release","session":"default","app":"A"}|} );
    ( {|decode {"cmd":"ping","extra":1,"trace":{"id":"zz"}}|},
      {|ok {"cmd":"ping"}|} );
    ( {|decode {"cmd":"cache-put","workload":"d","mask":3,"estimator":"x","results":[{"app":"A","period":1,"isolation_period":2,"throughput":0.5,"extra":true}]}|},
      {|ok {"cmd":"cache-put","workload":"d","mask":3,"estimator":"x","results":[{"app":"A","period":1,"isolation_period":2,"throughput":0.5}]}|} );
    ( {|decode {"cmd":"cache-put","workload":"d","mask":-1,"estimator":"x","results":[1]}|},
      {|error missing field "app"|} );
    ( {|decode {"cmd":"cache-put","workload":"d","mask":-1,"estimator":"x","results":[{"app":1},{}]}|},
      {|error missing field "app"|} );
    ( {|decode {"cmd":"cache-put","workload":"d","mask":2.5,"estimator":"x","results":[]}|},
      {|error field "mask" has the wrong type|} );
    ( {|decode {"cmd":"cache-put","workload":"d","mask":-1,"estimator":"x","results":[]}|},
      {|error mask must be non-negative|} );
    ( {|decode [{"cmd":"ping"}]|},
      {|error request must be a JSON object|} );
    ( {|decode "ping"|},
      {|error request must be a JSON object|} );
    ( {|decode {}|},
      {|error missing field "cmd"|} );
    ( {|decode {"cmd":42}|},
      {|error field "cmd" has the wrong type|} );
    ( {|decode {"cmd":null}|},
      {|error field "cmd" has the wrong type|} );
    ( {|decode {"cmd":"teleport"}|},
      {|error unknown command "teleport"|} );
    ( {|upload reply|},
      {|{"digest":"0123456789abcdef0123456789abcdef","apps":["A","B","C"],"procs":4}|} );
    ( {|estimate reply|},
      {|{"cached":false,"estimator":"second-order","results":[{"app":"A","period":333.33333333333331,"isolation_period":250,"throughput":0.0030000000000000001},{"app":"B","period":1234.5,"isolation_period":9.9999999999999995e-08,"throughput":0.00081004455245038481}]}|} );
    ( {|estimate reply cached|},
      {|{"cached":true,"estimator":"second-order","results":[{"app":"A","period":333.33333333333331,"isolation_period":250,"throughput":0.0030000000000000001},{"app":"B","period":1234.5,"isolation_period":9.9999999999999995e-08,"throughput":0.00081004455245038481}]}|} );
    ( {|verdict admitted|},
      {|{"verdict":"admitted","throughput":0.0625}|} );
    ( {|verdict admitted margin|},
      {|{"verdict":"admitted","throughput":0.0082987551867219917,"margin":{"confidence":0.94999999999999996,"method":"z-score","period":120.5,"lo":110.25,"hi":131,"mean":120,"std":5.125,"samples":400}}|} );
    ( {|verdict rejected-candidate|},
      {|{"verdict":"rejected-candidate","estimated":0.001,"required":0.5}|} );
    ( {|verdict rejected-victim|},
      {|{"verdict":"rejected-victim","victim":"C","estimated":0.33333333333333331,"required":0.5}|} );
    ( {|stats reply|},
      {|{"uptime_s":12.5,"connections":7,"requests":{"total":45,"ping":2,"estimate":40,"admit":3},"workloads":1,"sessions":2,"cache":{"entries":9,"capacity":256,"hits":31,"misses":9},"pool":{"active_connections":1,"workers":4,"queue_capacity":1024,"shed":0},"admission":{"admitted":2,"rejected_candidate":1,"rejected_victim":0,"released":1,"margins":1,"margin_mean_rel_width":0.0625},"latency_us":{"mean":88.25,"p50":40,"p90":210.5,"p99":880,"max":1290.75,"samples":45},"slo":{"objective_ms":50,"target":0.999,"burn_1m":0,"burn_1h":1.5},"audit":{"sample":8,"submitted":5,"completed":4,"dropped":1,"failed":0,"mean_err":-0.015625,"max_abs_err":0.125,"alarms":1,"drifting":["second-order"],"margin_checked":1,"margin_missed":0}}|} );
    ( {|metrics reply|},
      {|{"prometheus":"# HELP x y\nx 1\n"}|} );
    ( {|ok|},
      {|{"ok":{"stopping":true}}|} );
    ( {|error|},
      {|{"error":"bad request: missing field \"cmd\""}|} );
    ( {|shed|},
      {|{"shed":{"queue_depth":3}}|} );
    ( {|explain o2|},
      {|{"estimator":"second-order","engine":"mcm","usecase":["A","B"],"apps":[{"app":"A","isolation_period":1153,"period":1239.839887639981,"contention_factor":1.0753164680312064,"throughput":0.00080655575769826766,"actors":[{"actor":0,"name":"a0","proc":0,"exec":83,"p":0.21595836947094535,"mu":41.5,"contenders":[{"app":"B","actor":0,"p":0.033707865168539325,"mu":18,"tau":36}],"sandwich":{"order":2,"lower":0.60674157303370779,"upper":0.60674157303370779},"wait":0.60674157303370779,"response":83.606741573033702},{"actor":1,"name":"a1","proc":1,"exec":87,"p":0.075455333911535125,"mu":43.5,"contenders":[{"app":"B","actor":1,"p":0.1853932584269663,"mu":49.5,"tau":99}],"sandwich":{"order":2,"lower":9.1769662921348321,"upper":9.1769662921348321},"wait":9.1769662921348321,"response":96.176966292134836},{"actor":2,"name":"a2","proc":2,"exec":18,"p":0.046834345186470075,"mu":9,"contenders":[{"app":"B","actor":2,"p":0.077715355805243441,"mu":41.5,"tau":83}],"sandwich":{"order":2,"lower":3.2251872659176026,"upper":3.2251872659176026},"wait":3.2251872659176026,"response":21.225187265917604},{"actor":3,"name":"a3","proc":3,"exec":7,"p":0.0060711188204683438,"mu":3.5,"contenders":[{"app":"B","actor":3,"p":0.042134831460674156,"mu":7.5,"tau":15}],"sandwich":{"order":2,"lower":0.31601123595505615,"upper":0.31601123595505615},"wait":0.31601123595505615,"response":7.316011235955056},{"actor":4,"name":"a4","proc":4,"exec":76,"p":0.19774501300954034,"mu":38,"contenders":[{"app":"B","actor":4,"p":0.052434456928838954,"mu":14,"tau":28}],"sandwich":{"order":2,"lower":0.73408239700374533,"upper":0.73408239700374533},"wait":0.73408239700374533,"response":76.734082397003746},{"actor":5,"name":"a5","proc":5,"exec":21,"p":0.05464006938421509,"mu":10.5,"contenders":[{"app":"B","actor":5,"p":0.085205992509363296,"mu":45.5,"tau":91}],"sandwich":{"order":2,"lower":3.8768726591760299,"upper":3.8768726591760299},"wait":3.8768726591760299,"response":24.87687265917603},{"actor":6,"name":"a6","proc":6,"exec":33,"p":0.028620988725065046,"mu":16.5,"contenders":[{"app":"B","actor":6,"p":0.17790262172284643,"mu":47.5,"tau":95}],"sandwich":{"order":2,"lower":8.4503745318352053,"upper":8.4503745318352053},"wait":8.4503745318352053,"response":41.450374531835209},{"actor":7,"name":"a7","proc":7,"exec":93,"p":0.24197745013009539,"mu":46.5,"contenders":[{"app":"B","actor":7,"p":0.17041198501872659,"mu":45.5,"tau":91}],"sandwich":{"order":2,"lower":7.7537453183520597,"upper":7.7537453183520597},"wait":7.7537453183520597,"response":100.75374531835206},{"actor":8,"name":"a8","proc":8,"exec":85,"p":0.22116218560277537,"mu":42.5,"contenders":[{"app":"B","actor":8,"p":0.030898876404494381,"mu":16.5,"tau":33}],"sandwich":{"order":2,"lower":0.5098314606741573,"upper":0.5098314606741573},"wait":0.5098314606741573,"response":85.509831460674164},{"actor":9,"name":"a9","proc":9,"exec":98,"p":0.25498699045967044,"mu":49,"contenders":[{"app":"B","actor":9,"p":0.25842696629213485,"mu":46,"tau":92}],"sandwich":{"order":2,"lower":11.887640449438203,"upper":11.887640449438203},"wait":11.887640449438203,"response":109.88764044943821}]},{"app":"B","isolation_period":1068,"period":1166.4306157850588,"contention_factor":1.092163497926085,"throughput":0.00085731631737645737,"actors":[{"actor":0,"name":"b0","proc":0,"exec":36,"p":0.033707865168539325,"mu":18,"contenders":[{"app":"A","actor":0,"p":0.21595836947094535,"mu":41.5,"tau":83}],"sandwich":{"order":2,"lower":8.9622723330442327,"upper":8.9622723330442327},"wait":8.9622723330442327,"response":44.962272333044233},{"actor":1,"name":"b1","proc":1,"exec":99,"p":0.1853932584269663,"mu":49.5,"contenders":[{"app":"A","actor":1,"p":0.075455333911535125,"mu":43.5,"tau":87}],"sandwich":{"order":2,"lower":3.2823070251517779,"upper":3.2823070251517779},"wait":3.2823070251517779,"response":102.28230702515178},{"actor":2,"name":"b2","proc":2,"exec":83,"p":0.077715355805243441,"mu":41.5,"contenders":[{"app":"A","actor":2,"p":0.046834345186470075,"mu":9,"tau":18}],"sandwich":{"order":2,"lower":0.42150910667823066,"upper":0.42150910667823066},"wait":0.42150910667823066,"response":83.421509106678229},{"actor":3,"name":"b3","proc":3,"exec":15,"p":0.042134831460674156,"mu":7.5,"contenders":[{"app":"A","actor":3,"p":0.0060711188204683438,"mu":3.5,"tau":7}],"sandwich":{"order":2,"lower":0.021248915871639202,"upper":0.021248915871639202},"wait":0.021248915871639202,"response":15.02124891587164},{"actor":4,"name":"b4","proc":4,"exec":28,"p":0.052434456928838954,"mu":14,"contenders":[{"app":"A","actor":4,"p":0.19774501300954034,"mu":38,"tau":76}],"sandwich":{"order":2,"lower":7.5143104943625332,"upper":7.5143104943625332},"wait":7.5143104943625332,"response":35.514310494362533},{"actor":5,"name":"b5","proc":5,"exec":91,"p":0.085205992509363296,"mu":45.5,"contenders":[{"app":"A","actor":5,"p":0.05464006938421509,"mu":10.5,"tau":21}],"sandwich":{"order":2,"lower":0.57372072853425848,"upper":0.57372072853425848},"wait":0.57372072853425848,"response":91.573720728534255},{"actor":6,"name":"b6","proc":6,"exec":95,"p":0.17790262172284643,"mu":47.5,"contenders":[{"app":"A","actor":6,"p":0.028620988725065046,"mu":16.5,"tau":33}],"sandwich":{"order":2,"lower":0.47224631396357325,"upper":0.47224631396357325},"wait":0.47224631396357325,"response":95.472246313963566},{"actor":7,"name":"b7","proc":7,"exec":91,"p":0.17041198501872659,"mu":45.5,"contenders":[{"app":"A","actor":7,"p":0.24197745013009539,"mu":46.5,"tau":93}],"sandwich":{"order":2,"lower":11.251951431049436,"upper":11.251951431049436},"wait":11.251951431049436,"response":102.25195143104943},{"actor":8,"name":"b8","proc":8,"exec":33,"p":0.030898876404494381,"mu":16.5,"contenders":[{"app":"A","actor":8,"p":0.22116218560277537,"mu":42.5,"tau":85}],"sandwich":{"order":2,"lower":9.3993928881179531,"upper":9.3993928881179531},"wait":9.3993928881179531,"response":42.399392888117951},{"actor":9,"name":"b9","proc":9,"exec":92,"p":0.25842696629213485,"mu":46,"contenders":[{"app":"A","actor":9,"p":0.25498699045967044,"mu":49,"tau":98}],"sandwich":{"order":2,"lower":12.494362532523851,"upper":12.494362532523851},"wait":12.494362532523851,"response":104.49436253252385}]}]}|} );
    ( {|explain comp|},
      {|{"estimator":"composability","engine":"mcm","usecase":["A","B"],"apps":[{"app":"A","isolation_period":1153,"period":1239.839887639981,"contention_factor":1.0753164680312064,"throughput":0.00080655575769826766,"actors":[{"actor":0,"name":"a0","proc":0,"exec":83,"p":0.21595836947094535,"mu":41.5,"contenders":[{"app":"B","actor":0,"p":0.033707865168539325,"mu":18,"tau":36}],"fold":[{"app":"B","actor":0,"p":0.033707865168539325,"w":0.60674157303370779}],"wait":0.60674157303370779,"response":83.606741573033702},{"actor":1,"name":"a1","proc":1,"exec":87,"p":0.075455333911535125,"mu":43.5,"contenders":[{"app":"B","actor":1,"p":0.1853932584269663,"mu":49.5,"tau":99}],"fold":[{"app":"B","actor":1,"p":0.1853932584269663,"w":9.1769662921348321}],"wait":9.1769662921348321,"response":96.176966292134836},{"actor":2,"name":"a2","proc":2,"exec":18,"p":0.046834345186470075,"mu":9,"contenders":[{"app":"B","actor":2,"p":0.077715355805243441,"mu":41.5,"tau":83}],"fold":[{"app":"B","actor":2,"p":0.077715355805243441,"w":3.2251872659176026}],"wait":3.2251872659176026,"response":21.225187265917604},{"actor":3,"name":"a3","proc":3,"exec":7,"p":0.0060711188204683438,"mu":3.5,"contenders":[{"app":"B","actor":3,"p":0.042134831460674156,"mu":7.5,"tau":15}],"fold":[{"app":"B","actor":3,"p":0.042134831460674156,"w":0.31601123595505615}],"wait":0.31601123595505615,"response":7.316011235955056},{"actor":4,"name":"a4","proc":4,"exec":76,"p":0.19774501300954034,"mu":38,"contenders":[{"app":"B","actor":4,"p":0.052434456928838954,"mu":14,"tau":28}],"fold":[{"app":"B","actor":4,"p":0.052434456928838954,"w":0.73408239700374533}],"wait":0.73408239700374533,"response":76.734082397003746},{"actor":5,"name":"a5","proc":5,"exec":21,"p":0.05464006938421509,"mu":10.5,"contenders":[{"app":"B","actor":5,"p":0.085205992509363296,"mu":45.5,"tau":91}],"fold":[{"app":"B","actor":5,"p":0.085205992509363296,"w":3.8768726591760299}],"wait":3.8768726591760299,"response":24.87687265917603},{"actor":6,"name":"a6","proc":6,"exec":33,"p":0.028620988725065046,"mu":16.5,"contenders":[{"app":"B","actor":6,"p":0.17790262172284643,"mu":47.5,"tau":95}],"fold":[{"app":"B","actor":6,"p":0.17790262172284643,"w":8.4503745318352053}],"wait":8.4503745318352053,"response":41.450374531835209},{"actor":7,"name":"a7","proc":7,"exec":93,"p":0.24197745013009539,"mu":46.5,"contenders":[{"app":"B","actor":7,"p":0.17041198501872659,"mu":45.5,"tau":91}],"fold":[{"app":"B","actor":7,"p":0.17041198501872659,"w":7.7537453183520597}],"wait":7.7537453183520597,"response":100.75374531835206},{"actor":8,"name":"a8","proc":8,"exec":85,"p":0.22116218560277537,"mu":42.5,"contenders":[{"app":"B","actor":8,"p":0.030898876404494381,"mu":16.5,"tau":33}],"fold":[{"app":"B","actor":8,"p":0.030898876404494381,"w":0.5098314606741573}],"wait":0.5098314606741573,"response":85.509831460674164},{"actor":9,"name":"a9","proc":9,"exec":98,"p":0.25498699045967044,"mu":49,"contenders":[{"app":"B","actor":9,"p":0.25842696629213485,"mu":46,"tau":92}],"fold":[{"app":"B","actor":9,"p":0.25842696629213485,"w":11.887640449438203}],"wait":11.887640449438203,"response":109.88764044943821}]},{"app":"B","isolation_period":1068,"period":1166.4306157850588,"contention_factor":1.092163497926085,"throughput":0.00085731631737645737,"actors":[{"actor":0,"name":"b0","proc":0,"exec":36,"p":0.033707865168539325,"mu":18,"contenders":[{"app":"A","actor":0,"p":0.21595836947094535,"mu":41.5,"tau":83}],"fold":[{"app":"A","actor":0,"p":0.21595836947094535,"w":8.9622723330442327}],"wait":8.9622723330442327,"response":44.962272333044233},{"actor":1,"name":"b1","proc":1,"exec":99,"p":0.1853932584269663,"mu":49.5,"contenders":[{"app":"A","actor":1,"p":0.075455333911535125,"mu":43.5,"tau":87}],"fold":[{"app":"A","actor":1,"p":0.075455333911535125,"w":3.2823070251517779}],"wait":3.2823070251517779,"response":102.28230702515178},{"actor":2,"name":"b2","proc":2,"exec":83,"p":0.077715355805243441,"mu":41.5,"contenders":[{"app":"A","actor":2,"p":0.046834345186470075,"mu":9,"tau":18}],"fold":[{"app":"A","actor":2,"p":0.046834345186470075,"w":0.42150910667823066}],"wait":0.42150910667823066,"response":83.421509106678229},{"actor":3,"name":"b3","proc":3,"exec":15,"p":0.042134831460674156,"mu":7.5,"contenders":[{"app":"A","actor":3,"p":0.0060711188204683438,"mu":3.5,"tau":7}],"fold":[{"app":"A","actor":3,"p":0.0060711188204683438,"w":0.021248915871639202}],"wait":0.021248915871639202,"response":15.02124891587164},{"actor":4,"name":"b4","proc":4,"exec":28,"p":0.052434456928838954,"mu":14,"contenders":[{"app":"A","actor":4,"p":0.19774501300954034,"mu":38,"tau":76}],"fold":[{"app":"A","actor":4,"p":0.19774501300954034,"w":7.5143104943625332}],"wait":7.5143104943625332,"response":35.514310494362533},{"actor":5,"name":"b5","proc":5,"exec":91,"p":0.085205992509363296,"mu":45.5,"contenders":[{"app":"A","actor":5,"p":0.05464006938421509,"mu":10.5,"tau":21}],"fold":[{"app":"A","actor":5,"p":0.05464006938421509,"w":0.57372072853425848}],"wait":0.57372072853425848,"response":91.573720728534255},{"actor":6,"name":"b6","proc":6,"exec":95,"p":0.17790262172284643,"mu":47.5,"contenders":[{"app":"A","actor":6,"p":0.028620988725065046,"mu":16.5,"tau":33}],"fold":[{"app":"A","actor":6,"p":0.028620988725065046,"w":0.47224631396357325}],"wait":0.47224631396357325,"response":95.472246313963566},{"actor":7,"name":"b7","proc":7,"exec":91,"p":0.17041198501872659,"mu":45.5,"contenders":[{"app":"A","actor":7,"p":0.24197745013009539,"mu":46.5,"tau":93}],"fold":[{"app":"A","actor":7,"p":0.24197745013009539,"w":11.251951431049436}],"wait":11.251951431049436,"response":102.25195143104943},{"actor":8,"name":"b8","proc":8,"exec":33,"p":0.030898876404494381,"mu":16.5,"contenders":[{"app":"A","actor":8,"p":0.22116218560277537,"mu":42.5,"tau":85}],"fold":[{"app":"A","actor":8,"p":0.22116218560277537,"w":9.3993928881179531}],"wait":9.3993928881179531,"response":42.399392888117951},{"actor":9,"name":"b9","proc":9,"exec":92,"p":0.25842696629213485,"mu":46,"contenders":[{"app":"A","actor":9,"p":0.25498699045967044,"mu":49,"tau":98}],"fold":[{"app":"A","actor":9,"p":0.25498699045967044,"w":12.494362532523851}],"wait":12.494362532523851,"response":104.49436253252385}]}]}|} );
    ( {|stats {"uptime_s":12.5,"connections":7,"requests":{"total":45,"ping":2,"estimate":40,"admit":3},"workloads":1,"sessions":2,"cache":{"entries":9,"capacity":256,"hits":31,"misses":9},"pool":{"active_connections":1,"workers":4,"queue_capacity":1024,"shed":0},"admission":{"admitted":2,"rejected_candidate":1,"rejected_victim":0,"released":1,"margins":1,"margin_mean_rel_width":0.0625},"latency_us":{"mean":88.25,"p50":40,"p90":210.5,"p99":880,"max":1290.75,"samples":45}}|},
      {|ok {"uptime_s":12.5,"connections":7,"requests":{"total":45,"ping":2,"estimate":40,"admit":3},"workloads":1,"sessions":2,"cache":{"entries":9,"capacity":256,"hits":31,"misses":9},"pool":{"active_connections":1,"workers":4,"queue_capacity":1024,"shed":0},"admission":{"admitted":2,"rejected_candidate":1,"rejected_victim":0,"released":1,"margins":1,"margin_mean_rel_width":0.0625},"latency_us":{"mean":88.25,"p50":40,"p90":210.5,"p99":880,"max":1290.75,"samples":45},"slo":{"objective_ms":0,"target":0,"burn_1m":0,"burn_1h":0},"audit":{"sample":0,"submitted":0,"completed":0,"dropped":0,"failed":0,"mean_err":0,"max_abs_err":0,"alarms":0,"drifting":[],"margin_checked":0,"margin_missed":0}}|} );
    ( {|stats {"uptime_s":12.5,"connections":7,"requests":{"total":45,"ping":2,"estimate":40,"admit":3},"workloads":1,"sessions":2,"pool":{"active_connections":1,"workers":4,"queue_capacity":1024,"shed":0},"admission":{"admitted":2,"rejected_candidate":1,"rejected_victim":0,"released":1,"margins":1,"margin_mean_rel_width":0.0625},"latency_us":{"mean":88.25,"p50":40,"p90":210.5,"p99":880,"max":1290.75,"samples":45},"slo":{"objective_ms":50,"target":0.999,"burn_1m":0,"burn_1h":1.5},"audit":{"sample":8,"submitted":5,"completed":4,"dropped":1,"failed":0,"mean_err":-0.015625,"max_abs_err":0.125,"alarms":1,"drifting":["second-order"],"margin_checked":1,"margin_missed":0}}|},
      {|error missing field "cache"|} );
    ( {|stats {"connections":7,"requests":{"total":45,"ping":2,"estimate":40,"admit":3},"workloads":1,"sessions":2,"cache":{"entries":9,"capacity":256,"hits":31,"misses":9},"pool":{"active_connections":1,"workers":4,"queue_capacity":1024,"shed":0},"admission":{"admitted":2,"rejected_candidate":1,"rejected_victim":0,"released":1,"margins":1,"margin_mean_rel_width":0.0625},"latency_us":{"mean":88.25,"p50":40,"p90":210.5,"p99":880,"max":1290.75,"samples":45},"slo":{"objective_ms":50,"target":0.999,"burn_1m":0,"burn_1h":1.5},"audit":{"sample":8,"submitted":5,"completed":4,"dropped":1,"failed":0,"mean_err":-0.015625,"max_abs_err":0.125,"alarms":1,"drifting":["second-order"],"margin_checked":1,"margin_missed":0}}|},
      {|error missing field "uptime_s"|} );
    ( {|stats {"uptime_s":1,"connections":0,"requests":{"total":3,"ping":2,"bad":"x","half":0.5},"workloads":0,"sessions":0,"cache":{"entries":0,"capacity":1,"hits":0,"misses":0},"pool":{"active_connections":0,"workers":1,"queue_capacity":0,"shed":0},"admission":{"admitted":0,"rejected_candidate":0,"rejected_victim":0,"released":0,"margins":"x"},"latency_us":{"mean":0,"p50":0,"p90":0,"p99":0,"max":0,"samples":0},"slo":"x","audit":{"sample":2.7,"failed":"x","drifting":[1],"mean_err":0.5}}|},
      {|ok {"uptime_s":1,"connections":0,"requests":{"total":3,"ping":2},"workloads":0,"sessions":0,"cache":{"entries":0,"capacity":1,"hits":0,"misses":0},"pool":{"active_connections":0,"workers":1,"queue_capacity":0,"shed":0},"admission":{"admitted":0,"rejected_candidate":0,"rejected_victim":0,"released":0,"margins":0,"margin_mean_rel_width":0},"latency_us":{"mean":0,"p50":0,"p90":0,"p99":0,"max":0,"samples":0},"slo":{"objective_ms":0,"target":0,"burn_1m":0,"burn_1h":0},"audit":{"sample":2,"submitted":0,"completed":0,"dropped":0,"failed":0,"mean_err":0.5,"max_abs_err":0,"alarms":0,"drifting":[],"margin_checked":0,"margin_missed":0}}|} );
    ( {|stats {"uptime_s":1,"connections":0,"requests":5}|},
      {|error field "requests" has the wrong type|} );
    ( {|stats {"uptime_s":1,"connections":0,"requests":{"ping":2}}|},
      {|error missing field "total"|} );
    ( {|stats {"uptime_s":1,"connections":0,"requests":{"total":0},"workloads":0,"sessions":0,"cache":null}|},
      {|error missing field "entries"|} );
    ( {|stats {"uptime_s":1,"connections":0,"requests":{"total":0},"workloads":0,"sessions":0,"cache":{"entries":0,"capacity":1,"hits":0,"misses":0},"pool":{"active_connections":0,"workers":1,"queue_capacity":0,"shed":0},"admission":{"admitted":0,"rejected_candidate":0,"rejected_victim":0,"released":0},"latency_us":{"mean":0,"p50":0,"p90":0,"p99":0,"max":0,"samples":0},"audit":null}|},
      {|ok {"uptime_s":1,"connections":0,"requests":{"total":0},"workloads":0,"sessions":0,"cache":{"entries":0,"capacity":1,"hits":0,"misses":0},"pool":{"active_connections":0,"workers":1,"queue_capacity":0,"shed":0},"admission":{"admitted":0,"rejected_candidate":0,"rejected_victim":0,"released":0,"margins":0,"margin_mean_rel_width":0},"latency_us":{"mean":0,"p50":0,"p90":0,"p99":0,"max":0,"samples":0},"slo":{"objective_ms":0,"target":0,"burn_1m":0,"burn_1h":0},"audit":{"sample":0,"submitted":0,"completed":0,"dropped":0,"failed":0,"mean_err":0,"max_abs_err":0,"alarms":0,"drifting":[],"margin_checked":0,"margin_missed":0}}|} );
    ( {|verdict {"verdict":"admitted","throughput":0.5,"margin":null}|},
      {|ok {"verdict":"admitted","throughput":0.5}|} );
    ( {|verdict {"verdict":"admitted","throughput":0.5,"margin":{"confidence":0.9}}|},
      {|error missing field "method"|} );
    ( {|verdict {"verdict":"admitted","throughput":0.5,"margin":{"confidence":0.9,"method":"bogus"}}|},
      {|error unknown margin method "bogus"|} );
    ( {|verdict {"verdict":"admitted","throughput":0.5,"margin":{"confidence":0.9,"method":"quantile","period":10,"lo":12,"hi":11,"mean":10,"std":1,"samples":5}}|},
      {|error margin lo > hi|} );
    ( {|verdict {"verdict":"rejected-victim","victim":"B","estimated":1}|},
      {|error missing field "required"|} );
    ( {|verdict {"verdict":"maybe"}|},
      {|error unknown verdict "maybe"|} );
    ( {|verdict {"throughput":1}|},
      {|error missing field "verdict"|} );
    ( {|estimate {"cached":false,"estimator":"exact","results":[]}|},
      {|ok {"cached":false,"estimator":"exact","results":[]}|} );
    ( {|estimate {"cached":1,"estimator":"exact","results":[]}|},
      {|error field "cached" has the wrong type|} );
    ( {|estimate {"cached":true,"estimator":"exact","results":[1]}|},
      {|error missing field "app"|} );
    ( {|estimate {"cached":true,"estimator":"exact","results":{}}|},
      {|error field "results" has the wrong type|} );
    ( {|explain {"estimator":"o2","engine":"mcm","usecase":["A"],"apps":[]}|},
      {|ok {"estimator":"o2","engine":"mcm","usecase":["A"],"apps":[]}|} );
    ( {|explain {"estimator":"o2","engine":"mcm","usecase":["A",2],"apps":[]}|},
      {|error field "usecase" has the wrong type|} );
    ( {|explain {"estimator":"o2","engine":"mcm","usecase":[],"apps":[{"app":"A","isolation_period":1,"period":2,"contention_factor":2,"throughput":0.5,"actors":[{"actor":0,"name":"a","proc":0,"exec":1,"p":0,"mu":0,"contenders":[],"wait":0,"response":1}]}]}|},
      {|ok {"estimator":"o2","engine":"mcm","usecase":[],"apps":[{"app":"A","isolation_period":1,"period":2,"contention_factor":2,"throughput":0.5,"actors":[{"actor":0,"name":"a","proc":0,"exec":1,"p":0,"mu":0,"contenders":[],"wait":0,"response":1}]}]}|} );
    ( {|explain {"estimator":"o2","engine":"mcm","usecase":[],"apps":[{"app":"A","isolation_period":1,"period":2,"contention_factor":2,"throughput":0.5,"actors":[{"actor":0,"name":"a","proc":0,"exec":1,"p":0,"mu":0,"contenders":[],"fold":null,"wait":0,"response":1}]}]}|},
      {|error field "fold" has the wrong type|} );
    ( {|explain {"estimator":"o2","engine":"mcm","usecase":[],"apps":[{"app":"A","isolation_period":1,"period":2,"contention_factor":2,"throughput":0.5,"actors":[{"actor":0,"name":"a","proc":0,"exec":1,"p":0,"mu":0,"contenders":[],"sandwich":null,"wait":0,"response":1}]}]}|},
      {|error missing field "order"|} );
    ( {|classify {"ok":{"x":1}}|},
      {|ok {"x":1}|} );
    ( {|classify {"error":"boom"}|},
      {|error boom|} );
    ( {|classify {"shed":{"queue_depth":4}}|},
      {|shed 4|} );
    ( {|classify {"shed":{}}|},
      {|shed 0|} );
    ( {|classify {"error":5}|},
      {|error malformed reply: neither "ok", "error" nor "shed"|} );
    ( {|classify {}|},
      {|error malformed reply: neither "ok", "error" nor "shed"|} );
  ]

(* Single-fault request lines and the error each decodes to. *)
let mutants =
  [
    ( {|{"cmd":"upload"}|},
      {|error missing field "workload"|} );
    ( {|{"cmd":"upload","workload":0}|},
      {|error field "workload" has the wrong type|} );
    ( {|{"cmd":"estimate","usecase":["A","B"],"estimator":"exact"}|},
      {|error missing field "workload"|} );
    ( {|{"cmd":"estimate","workload":0,"usecase":["A","B"],"estimator":"exact"}|},
      {|error field "workload" has the wrong type|} );
    ( {|{"cmd":"estimate","workload":"0123456789abcdef","usecase":"","estimator":"exact"}|},
      {|error field "usecase" has the wrong type|} );
    ( {|{"cmd":"estimate","workload":"0123456789abcdef","usecase":["A","B"],"estimator":0}|},
      {|error field "estimator" has the wrong type|} );
    ( {|{"cmd":"explain","usecase":["A","B"],"estimator":"order-3"}|},
      {|error missing field "workload"|} );
    ( {|{"cmd":"explain","workload":0,"usecase":["A","B"],"estimator":"order-3"}|},
      {|error field "workload" has the wrong type|} );
    ( {|{"cmd":"explain","workload":"0123456789abcdef","usecase":"","estimator":"order-3"}|},
      {|error field "usecase" has the wrong type|} );
    ( {|{"cmd":"explain","workload":"0123456789abcdef","usecase":["A","B"],"estimator":0}|},
      {|error field "estimator" has the wrong type|} );
    ( {|{"cmd":"admit","session":0,"workload":"0123456789abcdef","app":"A","min_throughput":0.25,"confidence":0.94999999999999996,"margin_method":"quantile"}|},
      {|error field "session" has the wrong type|} );
    ( {|{"cmd":"admit","session":"s","app":"A","min_throughput":0.25,"confidence":0.94999999999999996,"margin_method":"quantile"}|},
      {|error missing field "workload"|} );
    ( {|{"cmd":"admit","session":"s","workload":0,"app":"A","min_throughput":0.25,"confidence":0.94999999999999996,"margin_method":"quantile"}|},
      {|error field "workload" has the wrong type|} );
    ( {|{"cmd":"admit","session":"s","workload":"0123456789abcdef","min_throughput":0.25,"confidence":0.94999999999999996,"margin_method":"quantile"}|},
      {|error missing field "app"|} );
    ( {|{"cmd":"admit","session":"s","workload":"0123456789abcdef","app":0,"min_throughput":0.25,"confidence":0.94999999999999996,"margin_method":"quantile"}|},
      {|error field "app" has the wrong type|} );
    ( {|{"cmd":"admit","session":"s","workload":"0123456789abcdef","app":"A","confidence":0.94999999999999996,"margin_method":"quantile"}|},
      {|error missing field "min_throughput"|} );
    ( {|{"cmd":"admit","session":"s","workload":"0123456789abcdef","app":"A","min_throughput":"","confidence":0.94999999999999996,"margin_method":"quantile"}|},
      {|error field "min_throughput" has the wrong type|} );
    ( {|{"cmd":"admit","session":"s","workload":"0123456789abcdef","app":"A","min_throughput":0.25,"confidence":"","margin_method":"quantile"}|},
      {|error field "confidence" has the wrong type|} );
    ( {|{"cmd":"admit","session":"s","workload":"0123456789abcdef","app":"A","min_throughput":0.25,"confidence":0.94999999999999996,"margin_method":0}|},
      {|error field "margin_method" has the wrong type|} );
    ( {|{"cmd":"release","session":0,"app":"A"}|},
      {|error field "session" has the wrong type|} );
    ( {|{"cmd":"release","session":"s"}|},
      {|error missing field "app"|} );
    ( {|{"cmd":"release","session":"s","app":0}|},
      {|error field "app" has the wrong type|} );
    ( {|{"cmd":"cache-put","mask":3,"estimator":"second-order","results":[{"app":"A","period":12,"isolation_period":10,"throughput":0.10000000000000001}]}|},
      {|error missing field "workload"|} );
    ( {|{"cmd":"cache-put","workload":0,"mask":3,"estimator":"second-order","results":[{"app":"A","period":12,"isolation_period":10,"throughput":0.10000000000000001}]}|},
      {|error field "workload" has the wrong type|} );
    ( {|{"cmd":"cache-put","workload":"0123456789abcdef","estimator":"second-order","results":[{"app":"A","period":12,"isolation_period":10,"throughput":0.10000000000000001}]}|},
      {|error missing field "mask"|} );
    ( {|{"cmd":"cache-put","workload":"0123456789abcdef","mask":"","estimator":"second-order","results":[{"app":"A","period":12,"isolation_period":10,"throughput":0.10000000000000001}]}|},
      {|error field "mask" has the wrong type|} );
    ( {|{"cmd":"cache-put","workload":"0123456789abcdef","mask":3,"results":[{"app":"A","period":12,"isolation_period":10,"throughput":0.10000000000000001}]}|},
      {|error missing field "estimator"|} );
    ( {|{"cmd":"cache-put","workload":"0123456789abcdef","mask":3,"estimator":0,"results":[{"app":"A","period":12,"isolation_period":10,"throughput":0.10000000000000001}]}|},
      {|error field "estimator" has the wrong type|} );
    ( {|{"cmd":"cache-put","workload":"0123456789abcdef","mask":3,"estimator":"second-order"}|},
      {|error missing field "results"|} );
    ( {|{"cmd":"cache-put","workload":"0123456789abcdef","mask":3,"estimator":"second-order","results":""}|},
      {|error field "results" has the wrong type|} );
  ]

let test_pins () =
  let observed = observed () in
  Alcotest.(check int) "pin count" (List.length expected) (List.length observed);
  List.iter2
    (fun (label, want) (label', got) ->
      Alcotest.(check string) "label" label label';
      Alcotest.(check string) label want got)
    expected observed

let test_mutants () =
  List.iter (fun (m, want) -> Alcotest.(check string) m want (decoded m)) mutants

let suite =
  [
    Alcotest.test_case "wire text pinned" `Quick test_pins;
    Alcotest.test_case "single-fault error text pinned" `Quick test_mutants;
  ]
