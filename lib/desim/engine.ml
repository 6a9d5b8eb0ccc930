(* Flat-array discrete-event engine.

   Every actor of every application gets a global id, [app_off.(a) + actor],
   so ascending ids are ascending (app, actor) pairs; channels are numbered
   the same way.  All run state lives in int and float arrays sized once per
   run, and the firing loop allocates nothing when [on_event] and
   [firing_time] are absent.  As in [Contention.Kernel], that holds on a
   non-flambda compiler because:

   - floats cross function boundaries through the [f] register array, never
     as arguments or results (either would be boxed);
   - every helper is a top-level function taking the state explicitly, so no
     closure is built per firing;
   - [Start]/[Finish] records are built only inside the [on_event] branch.

   Four tie-breaks fix the event order, and test/test_engine_diff.ml holds
   it bit-identical to the reference engine there: the heap orders
   completions by (time, insertion sequence), the FCFS ring keeps arrival
   order, completions at one instant are drained before any processor
   picks, and idle processors pick in ascending processor order.

   A step scans neither an actor's input channels nor all processors: a
   per-actor count of input channels short of tokens, kept where tokens
   change, makes [enabled] two array reads, and a bitset of the processors
   that are idle with queued work is drained at the end of each instant.

   Cycle skipping (see the section below) jumps over whole periods of a
   deterministic run once its state recurs; every result stays
   bit-identical to stepping each firing. *)

type app = Appstate.app = { graph : Sdf.Graph.t; mapping : int array }

type event =
  | Start of { time : float; app : int; actor : int; proc : int }
  | Finish of { time : float; app : int; actor : int; proc : int }

type result = Appstate.result = {
  app_name : string;
  iterations : int;
  avg_period : float;
  max_period : float;
  min_period : float;
  busy_time : float array;
}

type cycle = { start : float; length : float; skipped : int }

type stats = {
  final_time : float;
  total_firings : int;
  proc_busy : float array;
  cycle : cycle option;
}

type arbitration = Fcfs | Fixed_priority | Static_order of (int * int) array array

(* Actor states. *)
let idle = 0
let queued = 1
let running = 2

(* Float registers. *)
let r_now = 0 (* time of the instant being processed; the final time at exit *)
let r_tau = 1 (* duration of the firing being started *)
let r_due = 2 (* completion time handed to [heap_push] *)

(* Recurrence store for cycle skipping, one per domain and reused across
   runs.  Slot [i < count] holds a checkpoint's canonical state
   ([snap.(i * words ..)]), its fingerprint, and the counters a jump
   extrapolates: time, total firings and iterations per app in [ints],
   app then processor busy time in [floats].  Slot [count], always below
   [capacity], is scratch for the checkpoint being looked up.  Only every
   [stride]-th checkpoint is kept; when [capacity] are, every other one
   goes and the stride doubles, so memory stays at [capacity] states and a
   recurrence is found at most one stride late. *)
type store = {
  mutable busy : bool;  (* a run on this domain holds it *)
  mutable words : int;
  mutable nints : int;
  mutable nfloats : int;
  mutable snap : int array;
  mutable ints : int array;
  mutable floats : float array;
  fp : int array;
  index : int array;  (* open addressing on fingerprints: slot + 1, 0 = empty *)
  mutable count : int;
  mutable stride : int;
  mutable seen : int;  (* checkpoints looked up so far *)
}

let capacity = 32
let index_size = 4 * capacity (* a power of two, at most a quarter full *)

type t = {
  arbitration : arbitration;  (* dispatch only; static orders live in [so] *)
  warmup : int;
  procs : int;
  on_event : (event -> unit) option;
  firing_time : (app:int -> actor:int -> float) option;
  f : float array;
  (* Actors, by global id. *)
  app_off : int array;  (* [napps + 1] prefix sums of actor counts *)
  app_of : int array;
  proc_of : int array;
  exec : float array;
  state : int array;
  short : int array;  (* input channels with fewer tokens than [consume] *)
  in_off : int array;  (* CSR: input channels of actor [g] are *)
  in_ch : int array;  (*   [in_ch.(in_off.(g) .. in_off.(g + 1) - 1)] *)
  out_off : int array;  (* CSR of output channels, ascending channel id *)
  out_ch : int array;
  (* Channels, by global id. *)
  ch_dst : int array;
  produce : int array;
  consume : int array;
  tokens : int array;
  (* Processors.  The actors mapped to [p] are
     [pa.(pa_off.(p) .. pa_off.(p + 1) - 1)] in ascending id; the same slice
     of [ring] is [p]'s FCFS ready queue, starting at [head.(p)]. *)
  pa_off : int array;
  pa : int array;
  ring : int array;
  head : int array;
  waiting : int array;  (* queued actors per processor *)
  serving : int array;  (* running actor per processor, -1 when idle *)
  ready : int array;
      (* Bitset of processors to dispatch at the end of the instant, [bits]
         per word: set when an idle processor gets a queued actor or a
         processor with queued work goes idle. *)
  proc_busy : float array;
  (* Static order: processor [p] cycles through
     [so.(so_off.(p) .. so_off.(p + 1) - 1)], next at [so_pos.(p)]. *)
  so_off : int array;
  so : int array;
  so_pos : int array;
  (* Completion heap over parallel arrays, keyed by (time, seq).  A processor
     has at most one firing in flight, so [procs] slots suffice. *)
  ht : float array;
  hs : int array;
  hg : int array;
  mutable hsize : int;
  mutable hseq : int;
  (* Per-application iteration bookkeeping. *)
  q0 : int array;  (* repetition count of actor 0 *)
  fires0 : int array;
  iterations : int array;
  kept_count : int array;
  last_completion : float array;
  kept_first : float array;
  max_gap : float array;
  min_gap : float array;
  app_busy : float array;  (* [a * procs + p] *)
  mutable total_firings : int;
  (* Cycle skipping: the store while checkpoints are looked up, and the
     cycle skipped. *)
  mutable store : store option;
  mutable cycle : cycle option;
}

(* Ready-set bits per word: 62 keeps every word non-negative. *)
let bits = 62

(* ------------------------------------------------------------------ *)
(* Completion heap *)

let[@inline] before s i j =
  let ti = s.ht.(i) and tj = s.ht.(j) in
  ti < tj || (ti = tj && s.hs.(i) < s.hs.(j))

let[@inline] swap s i j =
  let t = s.ht.(i) in
  s.ht.(i) <- s.ht.(j);
  s.ht.(j) <- t;
  let q = s.hs.(i) in
  s.hs.(i) <- s.hs.(j);
  s.hs.(j) <- q;
  let g = s.hg.(i) in
  s.hg.(i) <- s.hg.(j);
  s.hg.(j) <- g

(* Schedule the completion of actor [g] at [f.(r_due)]. *)
let heap_push s g =
  let i = ref s.hsize in
  s.ht.(!i) <- s.f.(r_due);
  s.hs.(!i) <- s.hseq;
  s.hg.(!i) <- g;
  s.hseq <- s.hseq + 1;
  s.hsize <- s.hsize + 1;
  while !i > 0 && before s !i ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    swap s !i parent;
    i := parent
  done

(* Drop the earliest completion; read it from slot 0 first. *)
let heap_drop_top s =
  s.hsize <- s.hsize - 1;
  let n = s.hsize in
  if n > 0 then begin
    s.ht.(0) <- s.ht.(n);
    s.hs.(0) <- s.hs.(n);
    s.hg.(0) <- s.hg.(n);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < n && before s l !m then m := l;
      if r < n && before s r !m then m := r;
      if !m = !i then sifting := false
      else begin
        swap s !i !m;
        i := !m
      end
    done
  end

(* ------------------------------------------------------------------ *)
(* Dataflow and arbitration *)

let[@inline] enabled s g = s.state.(g) = idle && s.short.(g) = 0

let[@inline] mark_ready s p =
  let w = p / bits in
  s.ready.(w) <- s.ready.(w) lor (1 lsl (p - (w * bits)))

let[@inline] enqueue s g =
  let p = s.proc_of.(g) in
  s.state.(g) <- queued;
  (match s.arbitration with
  | Fcfs ->
      let base = s.pa_off.(p) in
      let cap = s.pa_off.(p + 1) - base in
      s.ring.(base + ((s.head.(p) + s.waiting.(p)) mod cap)) <- g
  | Fixed_priority | Static_order _ -> ());
  s.waiting.(p) <- s.waiting.(p) + 1;
  (* Even when [p] already had queued work: under a static order it may be
     idle waiting for exactly this actor. *)
  if s.serving.(p) < 0 then mark_ready s p

(* The queued actor processor [p] serves next, or -1: the FCFS ring's head,
   the lowest queued id (= lowest (app, actor) pair), or the static order's
   next entry if it is queued. *)
let[@inline] take_next s p =
  if s.waiting.(p) = 0 then -1
  else
    match s.arbitration with
    | Fcfs ->
        let base = s.pa_off.(p) in
        let g = s.ring.(base + s.head.(p)) in
        s.head.(p) <- (s.head.(p) + 1) mod (s.pa_off.(p + 1) - base);
        g
    | Fixed_priority ->
        let k = ref s.pa_off.(p) in
        while s.state.(s.pa.(!k)) <> queued do
          incr k
        done;
        s.pa.(!k)
    | Static_order _ ->
        let len = s.so_off.(p + 1) - s.so_off.(p) in
        if len = 0 then -1
        else
          let g = s.so.(s.so_off.(p) + s.so_pos.(p)) in
          if s.state.(g) <> queued then -1
          else begin
            s.so_pos.(p) <- (s.so_pos.(p) + 1) mod len;
            g
          end

(* Start processor [p]'s next firing at [f.(r_now)], if it has one. *)
let start_service s p =
  let g = take_next s p in
  if g >= 0 then begin
    s.waiting.(p) <- s.waiting.(p) - 1;
    (* [g] was enabled, so no input was short before this consumption. *)
    for k = s.in_off.(g) to s.in_off.(g + 1) - 1 do
      let c = s.in_ch.(k) in
      let t = s.tokens.(c) - s.consume.(c) in
      s.tokens.(c) <- t;
      if t < s.consume.(c) then s.short.(g) <- s.short.(g) + 1
    done;
    s.state.(g) <- running;
    s.serving.(p) <- g;
    let a = s.app_of.(g) in
    (match s.firing_time with
    | None -> s.f.(r_tau) <- s.exec.(g)
    | Some firing_time ->
        let actor = g - s.app_off.(a) in
        let tau = firing_time ~app:a ~actor in
        if not (tau > 0. && Float.is_finite tau) then
          invalid_arg
            (Printf.sprintf "Desim.Engine: firing_time %g for app %d actor %d" tau a actor);
        s.f.(r_tau) <- tau);
    let tau = s.f.(r_tau) in
    s.proc_busy.(p) <- s.proc_busy.(p) +. tau;
    let b = (a * s.procs) + p in
    s.app_busy.(b) <- s.app_busy.(b) +. tau;
    (match s.on_event with
    | None -> ()
    | Some emit -> emit (Start { time = s.f.(r_now); app = a; actor = g - s.app_off.(a); proc = p }));
    s.f.(r_due) <- s.f.(r_now) +. tau;
    heap_push s g
  end

(* Actor 0 of app [a] completed an iteration at [f.(r_now)]; the first
   [warmup] iterations only set the reference point. *)
let[@inline] record_iteration s a =
  s.iterations.(a) <- s.iterations.(a) + 1;
  let time = s.f.(r_now) in
  if s.iterations.(a) > s.warmup then begin
    if s.kept_count.(a) = 0 then s.kept_first.(a) <- time
    else begin
      let gap = time -. s.last_completion.(a) in
      if Float.is_nan s.max_gap.(a) || gap > s.max_gap.(a) then s.max_gap.(a) <- gap;
      if Float.is_nan s.min_gap.(a) || gap < s.min_gap.(a) then s.min_gap.(a) <- gap
    end;
    s.kept_count.(a) <- s.kept_count.(a) + 1
  end;
  s.last_completion.(a) <- time

(* Complete actor [g]'s firing at [f.(r_now)]: produce its outputs, then
   queue itself and its consumers (in channel order) if they became
   enabled. *)
let finish s g =
  let p = s.proc_of.(g) in
  s.serving.(p) <- -1;
  if s.waiting.(p) > 0 then mark_ready s p;
  s.state.(g) <- idle;
  (* A production can only lift a channel from short to sufficient. *)
  for k = s.out_off.(g) to s.out_off.(g + 1) - 1 do
    let c = s.out_ch.(k) in
    let t = s.tokens.(c) in
    let t' = t + s.produce.(c) in
    s.tokens.(c) <- t';
    if t < s.consume.(c) && t' >= s.consume.(c) then begin
      let d = s.ch_dst.(c) in
      s.short.(d) <- s.short.(d) - 1
    end
  done;
  let a = s.app_of.(g) in
  if g = s.app_off.(a) then begin
    s.fires0.(a) <- s.fires0.(a) + 1;
    if s.fires0.(a) mod s.q0.(a) = 0 then record_iteration s a
  end;
  s.total_firings <- s.total_firings + 1;
  (match s.on_event with
  | None -> ()
  | Some emit -> emit (Finish { time = s.f.(r_now); app = a; actor = g - s.app_off.(a); proc = p }));
  if enabled s g then enqueue s g;
  for k = s.out_off.(g) to s.out_off.(g + 1) - 1 do
    let d = s.ch_dst.(s.out_ch.(k)) in
    if enabled s d then enqueue s d
  done

(* End of an instant: the processors in the ready set pick their next
   firing, in ascending order. *)
let dispatch s =
  for w = 0 to Array.length s.ready - 1 do
    let set = ref s.ready.(w) in
    if !set <> 0 then begin
      s.ready.(w) <- 0;
      let p = ref (w * bits) in
      while !set <> 0 do
        if !set land 1 <> 0 then start_service s !p;
        set := !set lsr 1;
        incr p
      done
    end
  done

(* ------------------------------------------------------------------ *)
(* Cycle skipping

   With integer execution times and no hooks, every time and busy sum is an
   exact float integer, and the state at the end of an instant fixes the
   rest of the run up to a shift in time.  A checkpoint is the end of an
   instant in which app 0 completed an iteration, once every app has a kept
   (post-warm-up) iteration.  Its canonical state, relative to [now]:
   - token counts;
   - per actor, 0 when idle, 1 + its place in its processor's FCFS ring
     when queued (1 under the other policies), and minus its remaining
     time when running;
   - per app, [fires0 mod q0] and the time since its last iteration, so
     the first gap after a recurrence equals the first gap after the
     state's earlier visit;
   - the static-order positions.
   The short-of-tokens counts need no entry, since they are a function of
   the token counts, and neither does the ready set, which is empty at the
   end of every instant.
   The heap's order among equal due times needs no entry: a firing's
   duration is its actor's execution time, so of two completions due
   together the longer firing started first, and equal firings started in
   the same instant, picked in ascending processor order.
   When a checkpoint's state equals a stored one, the run between them
   repeats until the horizon.  [jump] adds whole repetitions; since every
   app completed an iteration in the cycle with the same gaps, the period
   extremes cannot change and [kept_first] stays. *)

let new_store () =
  {
    busy = false;
    words = 0;
    nints = 0;
    nfloats = 0;
    snap = [||];
    ints = [||];
    floats = [||];
    fp = Array.make capacity 0;
    index = Array.make index_size 0;
    count = 0;
    stride = 1;
    seen = 0;
  }

let store_key = Domain.DLS.new_key new_store

(* This domain's store sized for a run, or a fresh one if a run on another
   systhread of the domain holds it.  No allocation or poll point separates
   the test of [busy] from its set, so no other systhread runs between. *)
let acquire ~words ~nints ~nfloats =
  let st = Domain.DLS.get store_key in
  let st = if st.busy then new_store () else st in
  st.busy <- true;
  (* Arrays grow to powers of two, so a sweep of rising state sizes leaves
     little garbage behind. *)
  let size n =
    let c = ref 1 in
    while !c < n do
      c := 2 * !c
    done;
    !c
  in
  let slots = capacity in
  if Array.length st.snap < slots * words then st.snap <- Array.make (size (slots * words)) 0;
  if Array.length st.ints < slots * nints then st.ints <- Array.make (size (slots * nints)) 0;
  if Array.length st.floats < slots * nfloats then
    st.floats <- Array.make (size (slots * nfloats)) 0.;
  st.words <- words;
  st.nints <- nints;
  st.nfloats <- nfloats;
  st.count <- 0;
  st.stride <- 1;
  st.seen <- 0;
  Array.fill st.index 0 index_size 0;
  st

let state_words s =
  let positions = match s.arbitration with Static_order _ -> s.procs | Fcfs | Fixed_priority -> 0 in
  Array.length s.tokens + Array.length s.state + (2 * Array.length s.q0) + positions

(* Write the canonical state at [f.(r_now)] into the scratch slot. *)
let write_state s st =
  let snap = st.snap and now = s.f.(r_now) in
  let base = st.count * st.words in
  let nchannels = Array.length s.tokens and nactors = Array.length s.state in
  Array.blit s.tokens 0 snap base nchannels;
  let actors = base + nchannels in
  for g = 0 to nactors - 1 do
    snap.(actors + g) <- (if s.state.(g) = queued then 1 else 0)
  done;
  (match s.arbitration with
  | Fcfs ->
      for p = 0 to s.procs - 1 do
        let off = s.pa_off.(p) in
        let cap = s.pa_off.(p + 1) - off in
        for i = 0 to s.waiting.(p) - 1 do
          snap.(actors + s.ring.(off + ((s.head.(p) + i) mod cap))) <- 1 + i
        done
      done
  | Fixed_priority | Static_order _ -> ());
  (* Every completion is due after [now]: those at [now] are drained. *)
  for i = 0 to s.hsize - 1 do
    snap.(actors + s.hg.(i)) <- Float.to_int (now -. s.ht.(i))
  done;
  let k = actors + nactors in
  for a = 0 to Array.length s.q0 - 1 do
    snap.(k + (2 * a)) <- s.fires0.(a) mod s.q0.(a);
    snap.(k + (2 * a) + 1) <- Float.to_int (now -. s.last_completion.(a))
  done;
  match s.arbitration with
  | Static_order _ -> Array.blit s.so_pos 0 snap (k + (2 * Array.length s.q0)) s.procs
  | Fcfs | Fixed_priority -> ()

let fingerprint st slot =
  let h = ref 0 in
  for i = slot * st.words to ((slot + 1) * st.words) - 1 do
    let x = (!h lxor st.snap.(i)) * 0x2545F4914F6CDD1D in
    h := x lxor (x lsr 29)
  done;
  !h

let same_state st a b =
  let w = st.words in
  let i = ref 0 in
  while !i < w && st.snap.((a * w) + !i) = st.snap.((b * w) + !i) do
    incr i
  done;
  !i = w

(* The stored slot whose state equals the scratch slot's, or -1. *)
let find st h =
  let mask = index_size - 1 in
  let k = ref (h land mask) and found = ref (-1) in
  while !found < 0 && st.index.(!k) > 0 do
    let slot = st.index.(!k) - 1 in
    if st.fp.(slot) = h && same_state st slot st.count then found := slot
    else k := (!k + 1) land mask
  done;
  !found

let index_add st slot =
  let mask = index_size - 1 in
  let k = ref (st.fp.(slot) land mask) in
  while st.index.(!k) > 0 do
    k := (!k + 1) land mask
  done;
  st.index.(!k) <- slot + 1

(* Keep the even slots (checkpoints 0, 2 stride, ...) and double the stride. *)
let compact st =
  let half = st.count / 2 in
  for i = 1 to half - 1 do
    Array.blit st.snap (2 * i * st.words) st.snap (i * st.words) st.words;
    Array.blit st.ints (2 * i * st.nints) st.ints (i * st.nints) st.nints;
    Array.blit st.floats (2 * i * st.nfloats) st.floats (i * st.nfloats) st.nfloats;
    st.fp.(i) <- st.fp.(2 * i)
  done;
  st.count <- half;
  st.stride <- 2 * st.stride;
  Array.fill st.index 0 index_size 0;
  for i = 0 to half - 1 do
    index_add st i
  done

(* Keep the scratch slot, with the counters a jump extrapolates from. *)
let keep s st h =
  let slot = st.count in
  let b = slot * st.nints and napps = Array.length s.q0 in
  st.ints.(b) <- Float.to_int s.f.(r_now);
  st.ints.(b + 1) <- s.total_firings;
  Array.blit s.iterations 0 st.ints (b + 2) napps;
  let fb = slot * st.nfloats and nb = Array.length s.app_busy in
  Array.blit s.app_busy 0 st.floats fb nb;
  Array.blit s.proc_busy 0 st.floats (fb + nb) s.procs;
  st.fp.(slot) <- h;
  index_add st slot;
  st.count <- slot + 1;
  if st.count = capacity then compact st

(* The state at [f.(r_now)] equals that of [slot]: add the
   [(limit - now) / length] whole cycles that fit before [limit]. *)
let jump s st slot ~limit =
  let now = Float.to_int s.f.(r_now) in
  let b = slot * st.nints in
  let start = st.ints.(b) in
  let length = now - start in
  let m = (limit - now) / length in
  if m > 0 then begin
    let shift = float_of_int (m * length) and fm = float_of_int m in
    s.f.(r_now) <- s.f.(r_now) +. shift;
    for i = 0 to s.hsize - 1 do
      s.ht.(i) <- s.ht.(i) +. shift
    done;
    for a = 0 to Array.length s.q0 - 1 do
      s.last_completion.(a) <- s.last_completion.(a) +. shift;
      let d = m * (s.iterations.(a) - st.ints.(b + 2 + a)) in
      s.iterations.(a) <- s.iterations.(a) + d;
      s.kept_count.(a) <- s.kept_count.(a) + d;
      s.fires0.(a) <- s.fires0.(a) + (d * s.q0.(a))
    done;
    s.total_firings <- s.total_firings + (m * (s.total_firings - st.ints.(b + 1)));
    let fb = slot * st.nfloats and nb = Array.length s.app_busy in
    for i = 0 to nb - 1 do
      s.app_busy.(i) <- s.app_busy.(i) +. (fm *. (s.app_busy.(i) -. st.floats.(fb + i)))
    done;
    for p = 0 to s.procs - 1 do
      s.proc_busy.(p) <- s.proc_busy.(p) +. (fm *. (s.proc_busy.(p) -. st.floats.(fb + nb + p)))
    done;
    s.cycle <- Some { start = float_of_int start; length = float_of_int length; skipped = m }
  end

let all_kept s =
  let all = ref true in
  for a = 0 to Array.length s.kept_count - 1 do
    if s.kept_count.(a) = 0 then all := false
  done;
  !all

(* End of an instant in which app 0 completed an iteration; a checkpoint
   once every app has a kept iteration. *)
let checkpoint s ~limit =
  match s.store with
  | Some st when all_kept s ->
      write_state s st;
      let h = fingerprint st st.count in
      let slot = find st h in
      if slot >= 0 then begin
        jump s st slot ~limit;
        s.store <- None
      end
      else begin
        if st.seen land (st.stride - 1) = 0 then keep s st h;
        st.seen <- st.seen + 1
      end
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Set-up *)

let validate_order ~procs apps orders =
  if Array.length orders <> procs then
    invalid_arg "Desim.Engine: static order must list every processor";
  Array.iteri
    (fun proc order ->
      Array.iter
        (fun (ai, actor) ->
          if ai < 0 || ai >= Array.length apps then
            invalid_arg (Printf.sprintf "Desim.Engine: order names app %d" ai);
          if actor < 0 || actor >= Sdf.Graph.num_actors apps.(ai).graph then
            invalid_arg (Printf.sprintf "Desim.Engine: order names actor %d" actor);
          if apps.(ai).mapping.(actor) <> proc then
            invalid_arg
              (Printf.sprintf "Desim.Engine: order on processor %d names actor mapped to %d"
                 proc apps.(ai).mapping.(actor)))
        order)
    orders

let prefix_sums counts =
  let off = Array.make (Array.length counts + 1) 0 in
  Array.iteri (fun i c -> off.(i + 1) <- off.(i) + c) counts;
  off

(* CSR lists: [key.(i)] owns item [i]; items land in ascending order. *)
let csr ~buckets key =
  let count = Array.make buckets 0 in
  Array.iter (fun b -> count.(b) <- count.(b) + 1) key;
  let off = prefix_sums count in
  let fill = Array.sub off 0 buckets in
  let items = Array.make (Array.length key) 0 in
  Array.iteri
    (fun i b ->
      items.(fill.(b)) <- i;
      fill.(b) <- fill.(b) + 1)
    key;
  (off, items)

let make ~warmup ~on_event ~firing_time ~arbitration ~procs apps =
  let napps = Array.length apps in
  let q0 =
    Array.map
      (fun (a : app) ->
        let q = Sdf.Repetition.compute_exn a.graph in
        (* An app without actors never fires; any positive count will do. *)
        if Array.length q = 0 then 1 else q.(0))
      apps
  in
  let app_off = prefix_sums (Array.map (fun (a : app) -> Sdf.Graph.num_actors a.graph) apps) in
  let ch_off = prefix_sums (Array.map (fun (a : app) -> Sdf.Graph.num_channels a.graph) apps) in
  let nactors = app_off.(napps) and nchannels = ch_off.(napps) in
  let app_of = Array.make nactors 0 and proc_of = Array.make nactors 0 in
  let exec = Array.make nactors 0. in
  let ch_src = Array.make nchannels 0 and ch_dst = Array.make nchannels 0 in
  let produce = Array.make nchannels 0 and consume = Array.make nchannels 0 in
  let tokens = Array.make nchannels 0 in
  Array.iteri
    (fun a (app : app) ->
      Array.iteri
        (fun i (actor : Sdf.Graph.actor) ->
          let g = app_off.(a) + i in
          app_of.(g) <- a;
          proc_of.(g) <- app.mapping.(i);
          exec.(g) <- actor.exec_time)
        app.graph.actors;
      Array.iteri
        (fun i (c : Sdf.Graph.channel) ->
          let k = ch_off.(a) + i in
          ch_src.(k) <- app_off.(a) + c.src;
          ch_dst.(k) <- app_off.(a) + c.dst;
          produce.(k) <- c.produce;
          consume.(k) <- c.consume;
          tokens.(k) <- c.tokens)
        app.graph.channels)
    apps;
  let short = Array.make nactors 0 in
  for c = 0 to nchannels - 1 do
    if tokens.(c) < consume.(c) then short.(ch_dst.(c)) <- short.(ch_dst.(c)) + 1
  done;
  let in_off, in_ch = csr ~buckets:nactors ch_dst in
  let out_off, out_ch = csr ~buckets:nactors ch_src in
  let pa_off, pa = csr ~buckets:procs proc_of in
  let so_off, so =
    match arbitration with
    | Fcfs | Fixed_priority -> ([||], [||])
    | Static_order orders ->
        ( prefix_sums (Array.map Array.length orders),
          Array.map (fun (ai, actor) -> app_off.(ai) + actor) (Array.concat (Array.to_list orders)) )
  in
  {
    arbitration;
    warmup;
    procs;
    on_event;
    firing_time;
    f = Array.make 3 0.;
    app_off;
    app_of;
    proc_of;
    exec;
    state = Array.make nactors idle;
    short;
    in_off;
    in_ch;
    out_off;
    out_ch;
    ch_dst;
    produce;
    consume;
    tokens;
    pa_off;
    pa;
    ring = Array.make nactors 0;
    head = Array.make procs 0;
    waiting = Array.make procs 0;
    serving = Array.make procs (-1);
    ready = Array.make ((procs + bits - 1) / bits) 0;
    proc_busy = Array.make procs 0.;
    so_off;
    so;
    so_pos = Array.make procs 0;
    ht = Array.make procs 0.;
    hs = Array.make procs 0;
    hg = Array.make procs 0;
    hsize = 0;
    hseq = 0;
    q0;
    fires0 = Array.make napps 0;
    iterations = Array.make napps 0;
    kept_count = Array.make napps 0;
    last_completion = Array.make napps nan;
    kept_first = Array.make napps nan;
    max_gap = Array.make napps nan;
    min_gap = Array.make napps nan;
    app_busy = Array.make (napps * procs) 0.;
    total_firings = 0;
    store = None;
    cycle = None;
  }

let result s apps a =
  let n = s.kept_count.(a) in
  {
    app_name = apps.(a).graph.Sdf.Graph.name;
    iterations = s.iterations.(a);
    avg_period =
      (if n >= 2 then (s.last_completion.(a) -. s.kept_first.(a)) /. float_of_int (n - 1)
       else nan);
    max_period = s.max_gap.(a);
    min_period = s.min_gap.(a);
    busy_time = Array.sub s.app_busy (a * s.procs) s.procs;
  }

let run ?(horizon = 500_000.) ?(warmup_iterations = 20) ?on_event ?firing_time
    ?(arbitration = Fcfs) ~procs apps =
  if Array.length apps = 0 then invalid_arg "Desim.Engine.run: no applications";
  if procs < 1 then invalid_arg "Desim.Engine.run: procs < 1";
  if not (Float.is_finite horizon && horizon >= 0.) then
    invalid_arg
      (Printf.sprintf "Desim.Engine.run: horizon %g is not finite and non-negative" horizon);
  Array.iteri (fun index a -> Appstate.validate ~procs ~index a) apps;
  (match arbitration with
  | Static_order orders -> validate_order ~procs apps orders
  | Fcfs | Fixed_priority -> ());
  let s = make ~warmup:warmup_iterations ~on_event ~firing_time ~arbitration ~procs apps in
  (* Cycle skipping needs exact, shift-invariant float integers: integer
     execution times and every time up to the horizon within 2^53. *)
  let max_exec = Array.fold_left Float.max 0. s.exec in
  if
    Option.is_none on_event && Option.is_none firing_time
    && Array.for_all (fun x -> Float.is_integer x && x > 0.) s.exec
    && horizon +. max_exec <= 0x1p53
  then
    s.store <-
      Some
        (acquire ~words:(state_words s)
           ~nints:(2 + Array.length apps)
           ~nfloats:(Array.length s.app_busy + procs));
  let held = s.store in
  let limit = if Option.is_some held then Float.to_int horizon else 0 in
  (* Boot: queue everything initially enabled, start the processors. *)
  for g = 0 to Array.length s.state - 1 do
    if enabled s g then enqueue s g
  done;
  dispatch s;
  let live = ref true in
  while !live && s.hsize > 0 do
    let time = s.ht.(0) and g = s.hg.(0) in
    heap_drop_top s;
    if time > horizon then begin
      live := false;
      s.f.(r_now) <- horizon
    end
    else begin
      let iterations0 = s.iterations.(0) in
      s.f.(r_now) <- time;
      finish s g;
      (* Drain every completion scheduled for this same instant before any
         service decision, so arbitration sees the full state of [time]. *)
      while s.hsize > 0 && s.ht.(0) = time do
        let g = s.hg.(0) in
        heap_drop_top s;
        finish s g
      done;
      dispatch s;
      if s.iterations.(0) <> iterations0 then checkpoint s ~limit
    end
  done;
  Option.iter (fun st -> st.busy <- false) held;
  ( Array.init (Array.length apps) (result s apps),
    {
      final_time = s.f.(r_now);
      total_firings = s.total_firings;
      proc_busy = s.proc_busy;
      cycle = s.cycle;
    } )

let utilisation stats =
  if stats.final_time <= 0. then Array.map (fun _ -> 0.) stats.proc_busy
  else Array.map (fun b -> b /. stats.final_time) stats.proc_busy
