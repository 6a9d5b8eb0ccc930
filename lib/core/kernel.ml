(* Zero-allocation estimator kernel.

   Everything here evaluates over preallocated flat float arrays: after the
   scratch buffers have grown to the workload's high-water mark (warm-up), no
   function in this module allocates on either heap.  Three rules make that
   hold on a non-flambda native compiler:

   - floats cross function boundaries as [(array, index)] pairs, never as
     arguments or results (a float argument or return value is boxed at every
     non-inlined call);
   - loop accumulators live in small float/int/bool register arrays inside
     the scratch, never in [ref] cells (each [:=] of a float ref boxes);
   - every helper is a top-level function taking its state explicitly, so no
     closure is ever built on the hot path.

   The evaluators replicate the exact floating-point operation sequences of
   the list-based reference in lib/check ([Check.Reference]: the Eq. 4/5
   evaluators, {!Compose}, {!Sdf.Mcm}) — same fold orders, same
   parenthesisation, same guarded deconvolutions — so their results are
   bit-identical to that oracle, which the golden 1e-9 pins and the serve
   daemon's cache-equality guarantees rest on. *)

(* ------------------------------------------------------------------ *)
(* Scratch *)

type scratch = {
  mutable es : float array;  (* symmetric-polynomial basis of a target's others *)
  mutable de : float array;  (* per-contender deconvolved basis *)
  mutable ps : float array;  (* the target's others, compacted *)
  mutable dist : float array;  (* Bellman-Ford longest-path distances *)
  mutable wshift : float array;  (* lambda-shifted edge weights *)
  mutable par : int array;  (* relaxation parents, for cycle extraction *)
  f : float array;  (* float registers *)
  i : int array;  (* int registers *)
  b : bool array;  (* bool registers *)
}

let scratch () =
  {
    es = Array.make 16 0.;
    de = Array.make 16 0.;
    ps = Array.make 16 0.;
    dist = Array.make 64 0.;
    wshift = Array.make 64 0.;
    par = Array.make 64 0;
    f = Array.make 8 0.;
    i = Array.make 4 0;
    b = Array.make 4 false;
  }

let grow a n = if Array.length a < n then Array.make (Int.max n (2 * Array.length a)) 0. else a

let grow_int a n =
  if Array.length a < n then Array.make (Int.max n (2 * Array.length a)) 0 else a

let reserve_group s n =
  (* Waiting-time evaluation over a group of n members needs basis room for
     degrees 0..n and an n-element compaction buffer. *)
  s.es <- grow s.es (n + 2);
  s.de <- grow s.de (n + 2);
  s.ps <- grow s.ps (n + 2)

(* ------------------------------------------------------------------ *)
(* Waiting-time evaluators.

   Group members live in parallel arrays [p]/[mu]/[tau] at [off..off+n-1], in
   the same order the reference path's per-processor contender list has them;
   the wait inflicted on member t by the other members is written to
   [out.(off + t)].  All evaluators handle n = 1 (no contenders, wait 0). *)

let wc_into ~tau ~off ~n ~out =
  let f = out in
  for t = 0 to n - 1 do
    let m = off + t in
    f.(m) <- 0.
  done;
  (* Reference: List.fold_left (+. tau) 0. over the others in group order. *)
  for t = 0 to n - 1 do
    let m = off + t in
    for o = 0 to n - 1 do
      if o <> t then f.(m) <- f.(m) +. tau.(off + o)
    done
  done

(* Compact the target's others into s.ps (group order minus self); returns
   nothing, count is n - 1. *)
let fill_others s ~p ~off ~n ~t =
  for o = 0 to t - 1 do
    s.ps.(o) <- p.(off + o)
  done;
  for o = t + 1 to n - 1 do
    s.ps.(o - 1) <- p.(off + o)
  done

(* j-th coefficient of the Eq. 4 series: (-1)^(j+1) / (j+1), inlined (a
   float-returning helper would box). *)
let order_into s ~order ~p ~mu ~off ~n ~out =
  for t = 0 to n - 1 do
    let m = n - 1 in
    if m = 0 then out.(off + t) <- 0.
    else begin
      fill_others s ~p ~off ~n ~t;
      let max_degree = Int.min (order - 1) (m - 1) in
      let k = Int.min (max_degree + 1) m in
      (* es = Sympoly.up_to (max_degree + 1) ps, inlined. *)
      for j = 0 to k do
        s.es.(j) <- 0.
      done;
      s.es.(0) <- 1.;
      for i = 0 to m - 1 do
        let x = s.ps.(i) in
        for j = Int.min k (i + 1) downto 1 do
          s.es.(j) <- s.es.(j) +. (x *. s.es.(j - 1))
        done
      done;
      s.f.(0) <- 0.;
      (* acc *)
      for o = 0 to m - 1 do
        Sympoly.deconvolve_into ~es:s.es ~xs:s.ps ~skip:o ~out:s.de
          ~n:(max_degree + 1);
        if not (Sympoly.deconv_stable ~es:s.es ~out:s.de ~n:(max_degree + 1))
        then
          Sympoly.refold_trunc_into ~xs:s.ps ~m ~skip:o ~k:max_degree ~out:s.de;
        s.f.(1) <- 1.;
        (* series *)
        for j = 1 to max_degree do
          s.f.(1) <-
            s.f.(1)
            +. ((if j mod 2 = 1 then 1. else -1.)
                /. float_of_int (j + 1)
                *. s.de.(j))
        done;
        (* waiting_product l *. series, with the member index of other o *)
        let g = off + if o < t then o else o + 1 in
        s.f.(0) <- s.f.(0) +. (mu.(g) *. p.(g) *. s.f.(1))
      done;
      out.(off + t) <- s.f.(0)
    end
  done

let exact_into s ~p ~mu ~off ~n ~out =
  for t = 0 to n - 1 do
    let m = n - 1 in
    if m = 0 then out.(off + t) <- 0.
    else begin
      fill_others s ~p ~off ~n ~t;
      (* es = Sympoly.all ps, inlined. *)
      for j = 0 to m do
        s.es.(j) <- 0.
      done;
      s.es.(0) <- 1.;
      for i = 0 to m - 1 do
        let x = s.ps.(i) in
        for j = i + 1 downto 1 do
          s.es.(j) <- s.es.(j) +. (x *. s.es.(j - 1))
        done
      done;
      s.f.(0) <- 0.;
      for o = 0 to m - 1 do
        (* Guarded removal, as {!Sympoly.remove}. *)
        Sympoly.deconvolve_into ~es:s.es ~xs:s.ps ~skip:o ~out:s.de ~n:m;
        if not (Sympoly.deconv_stable ~es:s.es ~out:s.de ~n:m) then
          Sympoly.refold_skip_into ~xs:s.ps ~m ~skip:o ~out:s.de;
        s.f.(1) <- 1.;
        for j = 1 to m - 1 do
          s.f.(1) <-
            s.f.(1)
            +. ((if j mod 2 = 1 then 1. else -1.)
                /. float_of_int (j + 1)
                *. s.de.(j))
        done;
        let g = off + if o < t then o else o + 1 in
        s.f.(0) <- s.f.(0) +. (mu.(g) *. p.(g) *. s.f.(1))
      done;
      out.(off + t) <- s.f.(0)
    end
  done

let comp_into s ~p ~mu ~off ~n ~out =
  for t = 0 to n - 1 do
    (* Reference: (Compose.combine_all (List.map of_load others)).w — a left
       fold of the ⊗ of Eq. 9 from the empty aggregate, in group order.  ⊗ is
       only second-order associative, so the fold order below must match the
       reference list exactly. *)
    s.f.(0) <- 0.;
    (* aggregate p *)
    s.f.(1) <- 0.;
    (* aggregate w *)
    for o = 0 to n - 1 do
      if o <> t then begin
        let g = off + o in
        let bp = p.(g) in
        let bw = mu.(g) *. p.(g) in
        let ap = s.f.(0) and aw = s.f.(1) in
        s.f.(0) <- ap +. bp -. (ap *. bp);
        s.f.(1) <- (aw *. (1. +. (bp /. 2.))) +. (bw *. (1. +. (ap /. 2.)))
      end
    done;
    out.(off + t) <- s.f.(1)
  done

(* ------------------------------------------------------------------ *)
(* Flat maximum cycle ratio *)

type graph = {
  nnodes : int;
  src : int array;
  dst : int array;
  wactor : int array;  (* actor index weighting each edge (its source node) *)
  delay : float array;  (* pre-converted to float; >= 0 by construction *)
  zero_delay_cycle : bool;  (* topology-invariant, hoisted out of the search *)
  source_name : string;  (* for error messages *)
}

let graph ~nnodes ~name edges =
  let ne = Array.length edges in
  let src = Array.make (Int.max 1 ne) 0
  and dst = Array.make (Int.max 1 ne) 0
  and wactor = Array.make (Int.max 1 ne) 0
  and delay = Array.make (Int.max 1 ne) 0. in
  Array.iteri
    (fun e (u, v, a, d) ->
      if d < 0 then invalid_arg "Contention.Kernel.graph: negative delay";
      if u < 0 || u >= nnodes || v < 0 || v >= nnodes then
        invalid_arg "Contention.Kernel.graph: edge endpoint out of range";
      src.(e) <- u;
      dst.(e) <- v;
      wactor.(e) <- a;
      delay.(e) <- float_of_int d)
    edges;
  (* Zero-delay-cycle DFS, once per graph (Sdf.Mcm recomputes it per period
     call; the answer only depends on topology). *)
  let adj = Array.make (Int.max 1 nnodes) [] in
  Array.iter (fun (u, v, _, d) -> if d = 0 then adj.(u) <- v :: adj.(u)) edges;
  let color = Array.make (Int.max 1 nnodes) 0 in
  let found = ref false in
  let rec visit u =
    color.(u) <- 1;
    List.iter
      (fun v ->
        if not !found then
          if color.(v) = 1 then found := true else if color.(v) = 0 then visit v)
      adj.(u);
    color.(u) <- 2
  in
  for u = 0 to nnodes - 1 do
    if color.(u) = 0 && not !found then visit u
  done;
  {
    nnodes;
    src;
    dst;
    wactor;
    delay;
    zero_delay_cycle = !found;
    source_name = name;
  }

let num_edges g = Array.length g.src

let reserve_graph s g =
  s.dist <- grow s.dist g.nnodes;
  s.par <- grow_int s.par g.nnodes;
  s.wshift <- grow s.wshift (num_edges g)

(* One positive-cycle probe at lambda = s.f.(4), result in s.b.(0).
   Bit-identical to Sdf.Mcm.has_positive_cycle over the shifted edges
   (relaxation tolerance 1e-12, round bound, edge order). *)
let probe s g ~exec ~exec_off =
  let ne = num_edges g in
  for e = 0 to ne - 1 do
    s.wshift.(e) <- exec.(exec_off + g.wactor.(e)) -. (s.f.(4) *. g.delay.(e))
  done;
  for v = 0 to g.nnodes - 1 do
    s.dist.(v) <- 0.
  done;
  s.b.(0) <- true;
  (* changed *)
  s.i.(0) <- 0;
  (* round *)
  while s.b.(0) && s.i.(0) <= g.nnodes do
    s.b.(0) <- false;
    s.i.(0) <- s.i.(0) + 1;
    for e = 0 to ne - 1 do
      let candidate = s.dist.(g.src.(e)) +. s.wshift.(e) in
      if candidate > s.dist.(g.dst.(e)) +. 1e-12 then begin
        s.dist.(g.dst.(e)) <- candidate;
        s.b.(0) <- true
      end
    done
  done

let no_cycle_msg g =
  Printf.sprintf "Sdf.Hsdf.period: graph %S has no cycle (unbounded rate)"
    g.source_name

(* Positive-cycle probe at lambda = s.f.(4) with parent tracking: when a
   positive cycle exists (s.b.(0)), a witness cycle is extracted from the
   relaxation parents and its exact ratio (sum of weights over sum of
   delays) is written to s.f.(5).  The standard Bellman-Ford argument
   guarantees that a node still relaxed after [nnodes] rounds has a parent
   chain longer than [nnodes], so walking [nnodes] parents lands inside a
   cycle, and every parent-graph cycle has strictly positive shifted
   weight — hence a ratio strictly above lambda. *)
let probe_extract s g ~exec ~exec_off =
  let ne = num_edges g in
  for e = 0 to ne - 1 do
    s.wshift.(e) <- exec.(exec_off + g.wactor.(e)) -. (s.f.(4) *. g.delay.(e))
  done;
  for v = 0 to g.nnodes - 1 do
    s.dist.(v) <- 0.;
    s.par.(v) <- -1
  done;
  s.b.(0) <- true;
  s.i.(0) <- 0;
  s.i.(1) <- -1;
  (* witness: last node relaxed *)
  while s.b.(0) && s.i.(0) <= g.nnodes do
    s.b.(0) <- false;
    s.i.(0) <- s.i.(0) + 1;
    for e = 0 to ne - 1 do
      let candidate = s.dist.(g.src.(e)) +. s.wshift.(e) in
      if candidate > s.dist.(g.dst.(e)) +. 1e-12 then begin
        s.dist.(g.dst.(e)) <- candidate;
        s.par.(g.dst.(e)) <- e;
        s.b.(0) <- true;
        s.i.(1) <- g.dst.(e)
      end
    done
  done;
  if s.b.(0) then begin
    s.i.(2) <- s.i.(1);
    for _ = 1 to g.nnodes do
      s.i.(2) <- g.src.(s.par.(s.i.(2)))
    done;
    s.f.(5) <- 0.;
    (* weight sum *)
    s.f.(6) <- 0.;
    (* delay sum; >= 1 — zero-delay cycles were rejected up front *)
    s.i.(1) <- s.i.(2);
    s.b.(1) <- true;
    while s.b.(1) do
      let e = s.par.(s.i.(1)) in
      s.f.(5) <- s.f.(5) +. exec.(exec_off + g.wactor.(e));
      s.f.(6) <- s.f.(6) +. g.delay.(e);
      s.i.(1) <- g.src.(e);
      if s.i.(1) = s.i.(2) then s.b.(1) <- false
    done;
    s.f.(5) <- s.f.(5) /. s.f.(6)
  end

(* Dinkelbach (critical-cycle) iteration: starting from lambda = 0, repeatedly
   jump to the ratio of a witness positive cycle until no positive cycle
   remains.  On success (s.b.(2)) the converged lambda in s.f.(7) equals the
   maximum cycle ratio to within Bellman-Ford's relaxation fuzz: it IS some
   cycle's ratio (a lower bound up to roundoff) and the final probe certifies
   no cycle beats it.  Bails out (s.b.(2) false) on a numerical stall or
   failure to converge; callers then fall back to uncertified search. *)
let mcr_estimate s g ~exec ~exec_off =
  s.f.(7) <- 0.;
  s.b.(2) <- true;
  s.i.(3) <- 0;
  s.b.(3) <- true;
  while s.b.(3) do
    s.f.(4) <- s.f.(7);
    probe_extract s g ~exec ~exec_off;
    if not s.b.(0) then s.b.(3) <- false
    else if s.f.(5) <= s.f.(7) then begin
      (* The witness ratio did not improve: roundoff territory, and the
         no-cycle-above-lambda certificate does not hold.  Bail out. *)
      s.b.(3) <- false;
      s.b.(2) <- false
    end
    else begin
      s.f.(7) <- s.f.(5);
      s.i.(3) <- s.i.(3) + 1;
      if s.i.(3) > 64 then begin
        s.b.(3) <- false;
        s.b.(2) <- false
      end
    end
  done

let period_into s g ~exec ~exec_off ~out ~out_idx =
  reserve_graph s g;
  let ne = num_edges g in
  for e = 0 to ne - 1 do
    let w = exec.(exec_off + g.wactor.(e)) in
    if w < 0. then invalid_arg "Sdf.Mcm: negative weight or delay";
    (* [w] itself stays unboxed: the message re-reads the array. *)
    if not (Float.is_finite w) then
      invalid_arg
        (Printf.sprintf "Sdf.Mcm: non-finite edge weight %g"
           exec.(exec_off + g.wactor.(e)))
  done;
  if ne = 0 then invalid_arg (no_cycle_msg g);
  if g.zero_delay_cycle then
    invalid_arg "Sdf.Mcm.max_cycle_ratio: zero-delay cycle (deadlock)";
  (* total_weight, folded in edge order like the reference. *)
  s.f.(0) <- 0.;
  for e = 0 to ne - 1 do
    s.f.(0) <- s.f.(0) +. exec.(exec_off + g.wactor.(e))
  done;
  s.f.(4) <- -1.;
  probe s g ~exec ~exec_off;
  if not s.b.(0) then invalid_arg (no_cycle_msg g);
  (* A certified ratio estimate first: probes of the Lawler search landing
     outside its guard band have a provable outcome and are skipped, leaving
     only the handful of probes near the answer to run for real.  The guard
     dwarfs the Bellman-Ford relaxation fuzz (edges x ulp of the largest
     longest-path distance, itself bounded by the total weight), so every
     predicted outcome equals what the probe would have computed and the
     bisection trajectory — hence the result — is bit-identical to the
     reference, just cheaper. *)
  mcr_estimate s g ~exec ~exec_off;
  let certified = s.b.(2) in
  let mcr = s.f.(7) in
  (* Fuzz scales with ulp of the largest longest-path distance (bounded by
     the total weight) times the round count; the factor below keeps two to
     three orders of magnitude of margin over that while leaving only the
     final ~10 probes to run for real. *)
  let guard = (s.f.(0) +. Float.abs mcr +. 2.) *. 1e-11 in
  (* Lawler binary search: lo in f.(1), hi in f.(2), epsilon 1e-9.  As in
     the reference, the search also stops once the midpoint rounds onto a
     bound: above ~4.5e6 the ulp exceeds epsilon and the bracket can never
     get narrower.  s.b.(3) is the reference's [progress] flag. *)
  s.f.(1) <- 0.;
  s.f.(2) <- s.f.(0) +. 1.;
  s.b.(3) <- true;
  while s.b.(3) && s.f.(2) -. s.f.(1) > 1e-9 do
    s.f.(4) <- 0.5 *. (s.f.(1) +. s.f.(2));
    if s.f.(4) <= s.f.(1) || s.f.(4) >= s.f.(2) then s.b.(3) <- false
    else begin
      if certified && s.f.(4) > mcr +. guard then s.b.(0) <- false
      else if certified && s.f.(4) < mcr -. guard then s.b.(0) <- true
      else probe s g ~exec ~exec_off;
      if s.b.(0) then s.f.(1) <- s.f.(4) else s.f.(2) <- s.f.(4)
    end
  done;
  out.(out_idx) <- 0.5 *. (s.f.(1) +. s.f.(2))

(* ------------------------------------------------------------------ *)
(* Incremental per-processor symmetric-polynomial state *)

module Group = struct
  type t = {
    mutable n : int;
    mutable ids : int array;
    mutable ps : float array;
    mutable mus : float array;
    mutable taus : float array;
    mutable es : float array;  (* degrees 0..n valid *)
    mutable sc1 : float array;  (* basis minus the excluded member *)
    mutable sc2 : float array;  (* basis minus excluded and contender *)
    mutable xs : float array;  (* compaction buffer for fallbacks *)
    drift_bound : float;
    mutable drift : float;  (* accumulated deconvolution error estimate *)
    mutable rebuilds : int;  (* guard fallbacks on the state path *)
    mutable drift_refolds : int;  (* refolds forced by the drift bound *)
  }

  let create ?(capacity = 8) ?(drift_bound = 1e-6) () =
    if not (drift_bound > 0.) then
      invalid_arg "Contention.Kernel.Group.create: non-positive drift bound";
    let c = Int.max 2 capacity in
    {
      n = 0;
      ids = Array.make c 0;
      ps = Array.make c 0.;
      mus = Array.make c 0.;
      taus = Array.make c 0.;
      es = (let e = Array.make (c + 1) 0. in e.(0) <- 1.; e);
      sc1 = Array.make (c + 1) 0.;
      sc2 = Array.make (c + 1) 0.;
      xs = Array.make (c + 1) 0.;
      drift_bound;
      drift = 0.;
      rebuilds = 0;
      drift_refolds = 0;
    }

  let size g = g.n
  let es g = g.es
  let drift g = g.drift
  let rebuilds g = g.rebuilds
  let drift_refolds g = g.drift_refolds

  let grow_int a n = if Array.length a < n then (
    let b = Array.make (Int.max n (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a); b)
    else a

  let grow_keep a n =
    if Array.length a < n then (
      let b = Array.make (Int.max n (2 * Array.length a)) 0. in
      Array.blit a 0 b 0 (Array.length a);
      b)
    else a

  let reserve g n =
    g.ids <- grow_int g.ids n;
    g.ps <- grow_keep g.ps n;
    g.mus <- grow_keep g.mus n;
    g.taus <- grow_keep g.taus n;
    g.es <- grow_keep g.es (n + 1);
    g.sc1 <- grow_keep g.sc1 (n + 1);
    g.sc2 <- grow_keep g.sc2 (n + 1);
    g.xs <- grow_keep g.xs (n + 1)

  let index_of g id =
    let rec go i = if i >= g.n then -1 else if g.ids.(i) = id then i else go (i + 1) in
    go 0

  let mem g id = index_of g id >= 0

  (* Rebuild es from the member list — the O(n²) reference the deltas are
     checked against, and the fallback when a removal cancels.  Exact in the
     member list, so it zeroes the drift accumulator. *)
  let recompute g =
    for j = 0 to g.n do
      g.es.(j) <- 0.
    done;
    g.es.(0) <- 1.;
    for i = 0 to g.n - 1 do
      let x = g.ps.(i) in
      for j = i + 1 downto 1 do
        g.es.(j) <- g.es.(j) +. (x *. g.es.(j - 1))
      done
    done;
    g.drift <- 0.

  let es_reference g =
    let out = Array.make (g.n + 1) 0. in
    out.(0) <- 1.;
    for i = 0 to g.n - 1 do
      let x = g.ps.(i) in
      for j = i + 1 downto 1 do
        out.(j) <- out.(j) +. (x *. out.(j - 1))
      done
    done;
    out

  let add g ~id ~p ~mu ~tau =
    if not (p >= 0. && p <= 1.) then
      invalid_arg "Contention.Kernel.Group.add: probability outside [0,1]";
    if mem g id then invalid_arg "Contention.Kernel.Group.add: duplicate id";
    reserve g (g.n + 1);
    g.ids.(g.n) <- id;
    g.ps.(g.n) <- p;
    g.mus.(g.n) <- mu;
    g.taus.(g.n) <- tau;
    (* ⊕: one O(n) reconvolution step, es := es ⊛ (1 + p·z). *)
    for j = g.n + 1 downto 1 do
      g.es.(j) <- g.es.(j) +. (p *. g.es.(j - 1))
    done;
    g.n <- g.n + 1

  (* ⊖: guarded O(n) deconvolution of member [i]'s probability, with the
     O(n²) recompute fallback of {!Sympoly.remove}.  Returns [true] when the
     guard fired and sc1 was rebuilt exactly from the member list. *)
  let deconvolve_member g i =
    Sympoly.deconvolve_into ~es:g.es ~xs:g.ps ~skip:i ~out:g.sc1 ~n:g.n;
    let stable = Sympoly.deconv_stable ~es:g.es ~out:g.sc1 ~n:g.n in
    if not stable then
      Sympoly.refold_skip_into ~xs:g.ps ~m:g.n ~skip:i ~out:g.sc1;
    not stable

  (* Account one state-changing deconvolution: a guard fallback leaves an
     exact basis (rebuilds++, drift := 0); an unguarded deconvolution keeps
     relative error O(n·ulp), which we accumulate pessimistically and trade
     for one exact O(n²) refold once it crosses [drift_bound]. *)
  let account_state_deconv g ~fell_back =
    if fell_back then begin
      g.rebuilds <- g.rebuilds + 1;
      g.drift <- 0.
    end
    else begin
      g.drift <- g.drift +. (float_of_int (g.n + 1) *. epsilon_float);
      if g.drift > g.drift_bound then begin
        recompute g;
        g.drift_refolds <- g.drift_refolds + 1
      end
    end

  let remove g ~id =
    let i = index_of g id in
    if i < 0 then invalid_arg "Contention.Kernel.Group.remove: unknown id";
    let fell_back = deconvolve_member g i in
    (* sc1 now holds the basis without member i; it becomes the new es. *)
    let last = g.n - 1 in
    g.ids.(i) <- g.ids.(last);
    g.ps.(i) <- g.ps.(last);
    g.mus.(i) <- g.mus.(last);
    g.taus.(i) <- g.taus.(last);
    g.n <- last;
    for j = 0 to last do
      g.es.(j) <- g.sc1.(j)
    done;
    g.es.(last + 1) <- 0.;
    account_state_deconv g ~fell_back

  let update g ~id ~p ~mu ~tau =
    if not (p >= 0. && p <= 1.) then
      invalid_arg "Contention.Kernel.Group.update: probability outside [0,1]";
    let i = index_of g id in
    if i < 0 then invalid_arg "Contention.Kernel.Group.update: unknown id";
    (* Replace = deconvolve the old probability, refold the new one: the O(n)
       delta of the issue's incremental Eq. 4 state. *)
    let fell_back = deconvolve_member g i in
    g.ps.(i) <- p;
    g.mus.(i) <- mu;
    g.taus.(i) <- tau;
    for j = 0 to g.n - 1 do
      g.es.(j) <- g.sc1.(j)
    done;
    g.es.(g.n) <- 0.;
    for j = g.n downto 1 do
      g.es.(j) <- g.es.(j) +. (p *. g.es.(j - 1))
    done;
    account_state_deconv g ~fell_back

  (* Expected wait inflicted by the group on one observer.  [excluding] is
     the observer's own member index for an admitted actor (its load must not
     block itself), or -1 for an outside candidate.  Uses the maintained
     basis: one guarded deconvolution for the observer, one per contender —
     O(n) each, never an O(n²) rebuild unless a guard fires. *)
  let series_waiting g ~excluding ~max_degree_of =
    let m = if excluding >= 0 then g.n - 1 else g.n in
    if m = 0 then 0.
    else begin
      (* Contenders, compacted; their basis in sc1. *)
      let base =
        if excluding >= 0 then begin
          (* Query path: the fallback rebuilds sc1 exactly but leaves es
             untouched, so it is not a state rebuild. *)
          let (_ : bool) = deconvolve_member g excluding in
          g.sc1
        end
        else g.es
      in
      for i = 0 to g.n - 1 do
        if i <> excluding then
          g.xs.(if excluding >= 0 && i > excluding then i - 1 else i) <- g.ps.(i)
      done;
      let max_degree = max_degree_of m in
      let acc = ref 0. in
      for o = 0 to m - 1 do
        Sympoly.deconvolve_into ~es:base ~xs:g.xs ~skip:o ~out:g.sc2
          ~n:(max_degree + 1);
        if not (Sympoly.deconv_stable ~es:base ~out:g.sc2 ~n:(max_degree + 1))
        then
          Sympoly.refold_trunc_into ~xs:g.xs ~m ~skip:o ~k:max_degree ~out:g.sc2;
        let series = ref 1. in
        for j = 1 to max_degree do
          series :=
            !series
            +. ((if j mod 2 = 1 then 1. else -1.)
                /. float_of_int (j + 1)
                *. g.sc2.(j))
        done;
        let gi = if excluding >= 0 && o >= excluding then o + 1 else o in
        acc := !acc +. (g.mus.(gi) *. g.ps.(gi) *. !series)
      done;
      !acc
    end

  let exact_waiting g ~excluding:id =
    let t = match id with None -> -1 | Some id -> index_of g id in
    (match id with
    | Some id when t < 0 ->
        invalid_arg
          (Printf.sprintf "Contention.Kernel.Group.exact_waiting: unknown id %d" id)
    | _ -> ());
    series_waiting g ~excluding:t ~max_degree_of:(fun m -> m - 1)

  let order_waiting g ~order ~excluding:id =
    if order < 2 then invalid_arg "Contention.Kernel.Group.order_waiting: order < 2";
    let t = match id with None -> -1 | Some id -> index_of g id in
    (match id with
    | Some id when t < 0 ->
        invalid_arg
          (Printf.sprintf "Contention.Kernel.Group.order_waiting: unknown id %d" id)
    | _ -> ());
    series_waiting g ~excluding:t ~max_degree_of:(fun m ->
        Int.min (order - 1) (m - 1))

  let wc_waiting g ~excluding:id =
    let t = match id with None -> -1 | Some id -> index_of g id in
    (match id with
    | Some id when t < 0 ->
        invalid_arg
          (Printf.sprintf "Contention.Kernel.Group.wc_waiting: unknown id %d" id)
    | _ -> ());
    let acc = ref 0. in
    for i = 0 to g.n - 1 do
      if i <> t then acc := !acc +. g.taus.(i)
    done;
    !acc
end
