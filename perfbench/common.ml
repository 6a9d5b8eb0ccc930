(* Shared pieces of the three workloads: clock, order statistics, output
   checks, metric records, the seeded use-case sample, the Table-1 accuracy
   probe and the exact-count check. *)

module Analysis = Contention.Analysis
module Json = Serve.Json

let now () = Int64.to_int (Obs.Clock.now_ns ())
let seconds_since t0 = float_of_int (now () - t0) *. 1e-9

(* CPU time of the process, all threads, in ns (cpu_stubs.c).  Unlike
   [now], it leaves out time in which the process does not run: time the
   hypervisor gives to other guests (the kernel accounts that steal apart)
   and time other processes run on its CPU. *)
external cpu_now : unit -> int = "perfbench_process_cputime_ns" [@@noalloc]

let estimators = Array.of_list Analysis.all_paper_estimators

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Python's [statistics.quantiles(xs, n=4)] (the default, exclusive
   method), so in-run spreads read like the acceptance computation. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = i * (n + 1) in
      let j = Int.max 1 (Int.min (n - 1) (m / 4)) in
      let delta = m - (j * 4) in
      let delta = Int.max 0 (Int.min 4 delta) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Nearest-rank percentile of a sorted array. *)
let rank a q =
  let n = Array.length a in
  a.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* A tail percentile is reported only with at least ten samples beyond it:
   the highest of these levels that has them. *)
let tail_levels = [ 0.99; 0.95; 0.90; 0.50 ]


(* Growable float buffer for per-op samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create ?(capacity = 4096) () = { a = Array.make capacity 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let length b = b.n
  let contents b = Array.sub b.a 0 b.n
end

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* The benchmark's shared host runs the same code up to 2x slower for
   stretches of seconds to minutes (contention from other tenants; a
   latency-bound integer loop does not slow, code with instruction-level
   parallelism does, and by how much depends on the code's shape).  A
   fixed calibration kernel, frozen here, calling no program code and
   allocating nothing, is timed every [interval_ns] of the measured
   windows, and reported times are scaled by its slowdown against its time
   on a fast host (see {!local}, {!index} and Main).  Each workload picks
   the kernel shaped like its dominant layer:
   - [Bellman_ford]: relaxations with a parametric shift on a 24-node
     graph, the shape of a period-engine probe;
   - [Event_loop]: a binary heap over a pool of events feeding FIFO
     queues, with sequential writes standing in for allocation, the shape
     of the simulator (and of request handling). *)
module Calib = struct
  type kind = Bellman_ford | Event_loop

  let nodes = 24
  let edges = 60
  let src = Array.init edges (fun e -> if e < nodes then e else e * 7 mod nodes)
  let dst =
    Array.init edges (fun e -> if e < nodes then (e + 1) mod nodes else ((e * 11) + 5) mod nodes)
  let weight = Array.init edges (fun e -> float_of_int (1 + (e * 37 mod 17)))
  let delay = Array.init edges (fun e -> if e mod 5 = 0 then 1. else 0.)
  let dist = Array.make nodes 0.

  (* Where each kernel leaves its result, so that it is computed but not
     boxed. *)
  let sink = Array.make 1 0.

  let bellman_ford rounds =
    let acc = ref 0. in
    for k = 1 to rounds do
      let lambda = 3. +. (float_of_int (k land 7) *. 0.125) in
      Array.fill dist 0 nodes 0.;
      let changed = ref true and pass = ref 0 in
      while !changed && !pass < nodes do
        changed := false;
        incr pass;
        for e = 0 to edges - 1 do
          let v = dist.(src.(e)) +. weight.(e) -. (lambda *. delay.(e)) in
          if v > dist.(dst.(e)) +. 1e-12 then begin
            dist.(dst.(e)) <- v;
            changed := true
          end
        done
      done;
      acc := !acc +. dist.(0)
    done;
    sink.(0) <- !acc

  (* The event loop's state, preallocated so that the kernel allocates
     nothing: it never runs the program's garbage collector and so pays none
     of the program's pending GC work.  [heap] is a binary min-heap of slots
     of the event pool, each queue a ring of packed (a, b) pairs, and
     [scribble] is written sequentially, a few words a step, as the
     simulator's allocations write the minor heap; it is as large as the
     default minor heap and lies outside the OCaml heap, so that the
     collector neither scans it nor sizes the major heap by it. *)
  let pool = 128
  let ev_time = Array.make pool 0.
  let ev_seq = Array.make pool 0
  let ev_a = Array.make pool 0
  let ev_b = Array.make pool 0
  let heap = Array.make pool 0
  let size = ref 0
  let nqueues = 10
  let qcap = 16
  let queue = Array.make (nqueues * qcap) 0
  let qhead = Array.make nqueues 0
  let qlen = Array.make nqueues 0
  let scribble_mask = (1 lsl 18) - 1

  let scribble : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (scribble_mask + 1) in
    Bigarray.Array1.fill a 0;
    a
  let scribble_at = ref 0

  let before i j =
    let ti = ev_time.(heap.(i)) and tj = ev_time.(heap.(j)) in
    ti < tj || (ti = tj && ev_seq.(heap.(i)) < ev_seq.(heap.(j)))

  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t

  let push slot =
    heap.(!size) <- slot;
    incr size;
    let i = ref (!size - 1) in
    while !i > 0 && before !i ((!i - 1) / 2) do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 and s = ref !i in
      if l < !size && before l !s then s := l;
      if r < !size && before r !s then s := r;
      if !s = !i then sifting := false
      else begin
        swap !s !i;
        i := !s
      end
    done;
    top

  let enqueue q x =
    queue.((q * qcap) + ((qhead.(q) + qlen.(q)) land (qcap - 1))) <- x;
    qlen.(q) <- qlen.(q) + 1

  let dequeue q =
    let x = queue.((q * qcap) + qhead.(q)) in
    qhead.(q) <- (qhead.(q) + 1) land (qcap - 1);
    qlen.(q) <- qlen.(q) - 1;
    x

  let scribble_step a b t =
    let w = !scribble_at in
    for k = 0 to 11 do
      Bigarray.Array1.unsafe_set scribble ((w + k) land scribble_mask) (a + b + k + t)
    done;
    scribble_at := (w + 12) land scribble_mask

  let event_loop steps =
    size := 0;
    Array.fill qhead 0 nqueues 0;
    Array.fill qlen 0 nqueues 0;
    let seq = ref 0 in
    for a = 0 to 99 do
      incr seq;
      ev_time.(a) <- float_of_int (a mod 7);
      ev_seq.(a) <- !seq;
      ev_a.(a) <- a / 10;
      ev_b.(a) <- a mod 10;
      push a
    done;
    let acc = ref 0. in
    for _ = 1 to steps do
      let e = pop () in
      let a = ev_a.(e) and b = ev_b.(e) in
      let q = (a + b) mod 10 in
      enqueue q ((a lsl 8) lor b);
      let x = dequeue q in
      let a' = x lsr 8 and b' = x land 255 in
      incr seq;
      let time = ev_time.(e) in
      scribble_step a' b' !seq;
      ev_time.(e) <- time +. 1. +. float_of_int (((a' * 7) + (b' * 3)) mod 11);
      ev_seq.(e) <- !seq;
      ev_a.(e) <- b';
      ev_b.(e) <- a';
      push e;
      acc := !acc +. time
    done;
    sink.(0) <- !acc

  let kind = ref Bellman_ford
  let use k = kind := k

  (* Kernel sizes and their times on a fast host. *)
  let run () =
    match !kind with
    | Bellman_ford -> bellman_ford 500
    | Event_loop -> event_loop 10_000

  let reference_ns () = match !kind with Bellman_ford -> 2.0e6 | Event_loop -> 1.7e6
  let kind_name () = match !kind with Bellman_ford -> "bellman-ford" | Event_loop -> "event-loop"

  let interval_ns = 50_000_000
  let samples = Fbuf.create ()
  let at = Fbuf.create ()  (* when each sample was taken *)
  let last = ref 0
  let spent = ref 0  (* clock ns spent sampling, to keep out of op times *)

  (* The clock that times the kernel: the one the workload times its ops
     with, [now] or [cpu_now]. *)
  let clock = ref now
  let spent_clock = ref 0  (* the same time, on [!clock] *)

  let sample () =
    let t0 = now () and c0 = !clock () in
    run ();
    let c1 = !clock () and t1 = now () in
    spent := !spent + (t1 - t0);
    spent_clock := !spent_clock + (c1 - c0);
    Fbuf.push samples (float_of_int (c1 - c0));
    Fbuf.push at (float_of_int t0);
    last := t1

  (* The index of the last sample alone. *)
  let latest () = Fbuf.(samples.a.(samples.n - 1)) /. reference_ns ()

  (* Wall time since [t0] without the time spent sampling since
     [spent0 = !spent]. *)
  let elapsed_without ~t0 ~spent0 = now () - t0 - (!spent - spent0)

  (* Call between ops: samples the kernel once per [interval_ns]. *)
  let tick () = if now () - !last >= interval_ns then sample ()

  (* Host-speed index: 1 at the reference speed, 2 when the kernel takes
     twice as long.  Sampled at least once. *)
  let index () =
    if Fbuf.length samples = 0 then sample ();
    mean (Fbuf.contents samples) /. reference_ns ()

  (* The index over the samples taken in [t0, t1] (clock ns). *)
  let index_between t0 t1 =
    let ts = Fbuf.contents at and ds = Fbuf.contents samples in
    let inside = ref [] in
    Array.iteri
      (fun i t -> if t >= float_of_int t0 && t <= float_of_int t1 then inside := ds.(i) :: !inside)
      ts;
    match !inside with
    | [] -> index ()
    | xs -> mean (Array.of_list xs) /. reference_ns ()

  let window_ns = 250e6

  (* [lat.(i)] (ending at clock [ends.(i)], ascending) divided by the
     median index of the samples within [window_ns] of it: the host phases
     change within a run, so each op is scaled by the speed of its own
     neighbourhood.  Falls back to the run's index where no sample is
     near. *)
  let local ~ends lat =
    let whole = index () in
    let ts = Fbuf.contents at and ds = Fbuf.contents samples in
    let n = Array.length ts in
    let lo = ref 0 and hi = ref 0 in
    Array.mapi
      (fun i x ->
        let t = ends.(i) in
        while !lo < n && ts.(!lo) < t -. window_ns do incr lo done;
        while !hi < n && ts.(!hi) <= t +. window_ns do incr hi done;
        let h =
          if !hi > !lo then median (Array.sub ds !lo (!hi - !lo)) /. reference_ns () else whole
        in
        x /. h)
      lat
end

(* ------------------------------------------------------------------ *)
(* Output checks *)

type checks = { mutable failed : int; mutable messages : string list }

let checks () = { failed = 0; messages = [] }

(* [weight] ops failed for the stated reason; the first few reasons are
   kept for the report. *)
let fail c ?(weight = 1) fmt =
  Printf.ksprintf
    (fun msg ->
      c.failed <- c.failed + weight;
      if List.length c.messages < 20 then c.messages <- msg :: c.messages)
    fmt

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The repository's kernel/reference tolerance ([exact_check]). *)
let close a b = same_bits a b || Float.abs (a -. b) <= 1e-9 *. Float.abs b

(* ------------------------------------------------------------------ *)
(* Metrics *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  prov : (string * Json.t) list;  (** How the value was obtained. *)
  scaled : bool;  (** Already at the reference host speed (see {!Calib}). *)
}

let metric ?(prov = []) name unit_ value = { name; unit_; value; prov; scaled = false }
let num x = Json.Num x
let int n = Json.Num (float_of_int n)

(* A value that is the median of repeated measurements. *)
let summarised name unit_ xs =
  let q1, m, q3 = quartiles xs in
  metric name unit_ m
    ~prov:[ ("runs", int (Array.length xs)); ("median", num m); ("q1", num q1); ("q3", num q3) ]

(* Latency metrics from per-op samples in microseconds, split into
   contiguous chunks of the run: each percentile is taken per chunk and the
   median over chunks is reported, so one disturbed stretch of the run
   moves it little.  The tail level is the highest with ten samples beyond
   it in the smallest chunk. *)
let latency_metrics chunks =
  let chunks = List.map sorted chunks in
  let smallest = List.fold_left (fun acc a -> Int.min acc (Array.length a)) max_int chunks in
  let beyond q = smallest - int_of_float (Float.ceil (q *. float_of_int smallest)) in
  let tail_q = Option.value ~default:0.50 (List.find_opt (fun q -> beyond q >= 10) tail_levels) in
  let one name q note =
    let per_chunk = Array.of_list (List.map (fun a -> rank a q) chunks) in
    let q1, m, q3 = quartiles per_chunk in
    metric name "us" m
      ~prov:
        ([
           ("level", num (q *. 100.));
           ("chunks", int (List.length chunks));
           ("samples", int (List.fold_left (fun acc a -> acc + Array.length a) 0 chunks));
           ("chunk_samples_min", int smallest);
           ("beyond_per_chunk_min", int (beyond q));
           ("median", num m);
           ("q1", num q1);
           ("q3", num q3);
         ]
        @ note)
  in
  [
    one "op_p50_us" 0.5 [];
    one "op_p99_us" tail_q
      (if tail_q < 0.99 then
         [ ("note", Json.Str "under 10 samples beyond p99; highest level with 10 beyond") ]
       else []);
  ]

(* The sweeps repeat the same ops pass after pass: [a.(i)] is a sample of
   op slot [i mod nslots].  Each slot's median over the passes keeps
   disturbances shorter than a pass out of the percentiles. *)
let slot_medians ~nslots a =
  Array.init nslots (fun s ->
      let xs = Fbuf.create () in
      let i = ref s in
      while !i < Array.length a do
        Fbuf.push xs a.(!i);
        i := !i + nslots
      done;
      median (Fbuf.contents xs))

(* The op-time metrics from per-op samples [lat] (microseconds) ending at
   [ends] (clock ns), all taken from [chunks lat] so that one disturbed
   stretch of the run moves them little: [ops_per_s] is the median over the
   chunks of each chunk's ops over their summed times (so bookkeeping
   between ops — output checks, host-speed samples — is excluded), and the
   percentiles come from {!latency_metrics}.  Each op is first scaled to
   the reference host speed by the calibration samples around it; the
   unscaled figures are kept as [raw]. *)
let timing_metrics ~lat ~ends ~chunks =
  let norm = Calib.local ~ends lat in
  let rate cs =
    median
      (Array.of_list
         (List.map
            (fun a -> float_of_int (Array.length a) /. (Array.fold_left ( +. ) 0. a *. 1e-6))
            cs))
  in
  let scaled_chunks = chunks norm and raw_chunks = chunks lat in
  let at_reference m raw = { m with prov = ("raw", num raw) :: m.prov; scaled = true } in
  at_reference
    (metric "ops_per_s" "1/s" (rate scaled_chunks)
       ~prov:[ ("ops", int (Array.length lat)); ("chunks", int (List.length raw_chunks)) ])
    (rate raw_chunks)
  :: List.map2
       (fun m raw -> at_reference m raw.value)
       (latency_metrics scaled_chunks) (latency_metrics raw_chunks)

(* The measured whole-pass rates (bookkeeping included), as provenance of
   [ops_per_s]. *)
let with_pass_rates pass_rates =
  let q1, med, q3 = quartiles pass_rates in
  let prov =
    [
      ("passes", int (Array.length pass_rates));
      ("pass_rate_median", num med);
      ("pass_rate_q1", num q1);
      ("pass_rate_q3", num q3);
    ]
  in
  List.map (fun m -> if m.name = "ops_per_s" then { m with prov = m.prov @ prov } else m)

(* [n] contiguous, equal-count chunks of [a] (the remainder joins the last). *)
let chunked n a =
  let len = Array.length a in
  let n = Int.max 1 (Int.min n len) in
  let k = len / n in
  List.init n (fun j -> Array.sub a (j * k) (if j = n - 1 then len - (j * k) else k))

(* VmHWM of this process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith "VmHWM not found in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let setup_repeats = 25

(* Run [setup] [setup_repeats] times, discarding all but the last state;
   returns it with the setup-time metric: the median over the repeats of
   each one's time scaled by a host-speed sample taken right after it (set
   up runs before the measured windows, so {!Calib.local} has nothing near
   it).  The unscaled median is kept as [raw]. *)
let repeated_setup ~discard setup =
  let raw = Array.make setup_repeats 0. and scaled = Array.make setup_repeats 0. in
  let rec go i =
    let t0 = now () in
    let st = setup () in
    raw.(i) <- seconds_since t0;
    (* One untimed kernel run first: right after a set-up its code and data
       are cold, which the windows' samples never are. *)
    Calib.run ();
    Calib.sample ();
    scaled.(i) <- raw.(i) /. Calib.latest ();
    if i + 1 < setup_repeats then begin
      discard st;
      go (i + 1)
    end
    else st
  in
  let st = go 0 in
  let m = summarised "setup_s" "s" scaled in
  (st, { m with prov = ("raw", num (median raw)) :: m.prov; scaled = true })

(* [prepare] (repetition vector, HSDF expansion, loads) of every
   application, timed from here: median over repeats of the mean per app. *)
let prepare_metric (w : Exp.Workload.t) =
  let per_app =
    Array.init setup_repeats (fun _ ->
        let t0 = now () in
        Array.iter (fun a -> ignore (Sys.opaque_identity (Analysis.prepare a))) w.apps;
        seconds_since t0 *. 1e6 /. float_of_int (Array.length w.apps))
  in
  summarised "prepare.us_per_app" "us" per_app

(* ------------------------------------------------------------------ *)
(* Seeded inputs *)

let rng ~seed tag = Random.State.make [| seed; tag |]

(* The seed of the generated applications: fixed, the paper's.  Generated
   application sets differ a lot in HSDF size, so deriving them from
   [--seed] would make every timing spread far wider than a usable bound;
   [--seed] draws everything else. *)
let workload_seed = 2007
let workload () = Exp.Workload.make ~seed:workload_seed ()

let napps = 10
let nusecases = (1 lsl napps) - 1

(* [k] distinct use-cases drawn by [seed], ascending, stratified by size:
   of each number of active applications, the share a uniform draw of [k]
   holds, rounded.  The mix of small and large use-cases sets both their
   cost and their error, so fixing it keeps the seed from moving either.
   [tag] separates the streams drawn from one seed. *)
let sample ?(tag = 1) ~seed k =
  let g = rng ~seed tag in
  let by_size = Array.make (napps + 1) [] in
  for mask = nusecases downto 1 do
    let size = Contention.Usecase.cardinal mask in
    by_size.(size) <- mask :: by_size.(size)
  done;
  let pick size =
    let a = Array.of_list by_size.(size) in
    let n = Float.to_int (Float.round (float_of_int (k * Array.length a) /. float_of_int nusecases)) in
    for i = 0 to n - 1 do
      let j = i + Random.State.int g (Array.length a - i) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.sub a 0 n
  in
  let s = Array.concat (List.init (napps + 1) pick) in
  if Array.length s <> k then
    invalid_arg (Printf.sprintf "perfbench: a sample of %d does not split by size" k);
  Array.sort Int.compare s;
  s

(* Use-cases simulated for the Table-1 error of every workload. *)
let accuracy_sample_size = 128

(* Table-1 mean absolute % period error per paper estimator, against a
   simulation of the seeded sample.  [periods uc est] gives the periods the
   workload itself produced (active apps ascending) when it has them; they
   must equal the sweep's estimates bit for bit. *)
let accuracy c ~sweep ~periods =
  List.iter
    (fun (o : Exp.Sweep.observation) ->
      let pos =
        let rec idx k = function
          | [] -> 0
          | a :: rest -> if a = o.app_index then k else idx (k + 1) rest
        in
        idx 0 (Contention.Usecase.to_list o.usecase)
      in
      List.iter
        (fun (est, p) ->
          match periods o.usecase est with
          | None -> ()
          | Some ps ->
              if not (same_bits ps.(pos) p) then
                fail c "use-case %d %s app %d: workload period %h, sweep %h" o.usecase
                  (Analysis.estimator_name est) o.app_index ps.(pos) p)
        o.estimated_periods)
    sweep.Exp.Sweep.observations;
  Array.to_list
    (Array.map
       (fun est ->
         metric
           ("err_pct." ^ Analysis.estimator_name est)
           "%"
           (Exp.Sweep.inaccuracy_period sweep est)
           ~prov:[ ("usecases", int accuracy_sample_size); ("horizon", num 500_000.) ])
       estimators)

let simulate_sample ~seed w =
  Exp.Sweep.run ~jobs:1 ~usecases:(Array.to_list (sample ~seed accuracy_sample_size)) w

(* ------------------------------------------------------------------ *)
(* Exact counts *)

(* Counts that must repeat exactly are measured twice in a run, on the same
   inputs ([first] and [again], the same names in the same order); any
   difference fails the run. *)
let same_counts c ~what first again =
  List.iter2
    (fun (k, v) (_, v') ->
      if not (same_bits v v') then fail c "%s: count %s = %.17g, then %.17g" what k v v')
    first again

(* ------------------------------------------------------------------ *)
(* A workload's outcome *)

type result = {
  attempted : int;
  checks : checks;
  e2e : metric list;  (** Untraced end-to-end metrics. *)
  layers : metric list;  (** Per-layer metrics (traced runs only). *)
}

(* The ledger: layer self times against the untraced op time.  The two
   phases are timed in different stretches of the run, so each side is
   first scaled by the host speed of its own phase ([untraced] and
   [traced] are their clock spans). *)
let ledger_metrics ~untraced ~traced ~e2e_ns ~layer_ns ~traced_ns =
  let speed (t0, t1) = Calib.index_between t0 t1 in
  let e2e_ns = e2e_ns /. speed untraced in
  let layer_ns = layer_ns /. speed traced and traced_ns = traced_ns /. speed traced in
  let unattributed = 100. *. (e2e_ns -. layer_ns) /. e2e_ns in
  if unattributed > 10. then
    Printf.eprintf
      "perfbench: ledger gap: %.1f%% of the op time is outside the layers (missing layer)\n%!"
      unattributed
  else if unattributed < -10. then
    Printf.eprintf
      "perfbench: ledger gap: the layers sum to %.1f%% more than the op time (a layer counted \
       twice, or slowed by tracing)\n%!"
      (-.unattributed);
  [
    metric "unattributed_pct" "%" unattributed
      ~prov:
        [
          ("op_ns", num e2e_ns);
          ("layers_ns", num layer_ns);
          ("balanced", Json.Bool (Float.abs unattributed <= 10.));
        ];
    metric "trace_overhead_pct" "%"
      (100. *. (traced_ns -. e2e_ns) /. e2e_ns)
      ~prov:[ ("untraced_op_ns", num e2e_ns); ("traced_op_ns", num traced_ns) ];
  ]
