let slice_of ~wheel ~sharers =
  if wheel <= 0. then invalid_arg "Desim.Preemptive.slice_of: wheel <= 0";
  if sharers <= 0 then invalid_arg "Desim.Preemptive.slice_of: sharers <= 0";
  wheel /. float_of_int sharers

(* Per-processor TDMA state.  Every actor mapped on the processor owns one
   slice per wheel revolution (matching Contention.Tdma).  The simulation is
   event driven: slice boundaries and in-slice completions interleave in
   global time order, so an actor enabled mid-slice by a completion on
   another processor starts immediately — exactly the freedom the analytical
   worst-case model grants. *)
type running = {
  slot : int;  (* owner slot index *)
  started : float;
  remaining : float;  (* at [started] *)
}

type proc_state = {
  owners : (int * int) array;  (* (app, actor) owning each slice *)
  slice : float;
  paused : float array;  (* remaining work per owner slot; 0 = none *)
  pending : float array;  (* arrival time per owner slot; nan = none *)
  mutable slot_index : int;
  mutable slice_end : float;
  mutable running : running option;
  mutable generation : int;  (* invalidates scheduled completion events *)
}

type event = Boundary of int | Completion of int * int  (* proc, generation *)

let run ?(horizon = 500_000.) ?(warmup_iterations = 20) ?on_event ~wheel ~procs apps =
  if Array.length apps = 0 then invalid_arg "Desim.Preemptive.run: no applications";
  if procs < 1 then invalid_arg "Desim.Preemptive.run: procs < 1";
  if wheel <= 0. then invalid_arg "Desim.Preemptive.run: wheel <= 0";
  if not (Float.is_finite horizon && horizon >= 0.) then
    invalid_arg
      (Printf.sprintf "Desim.Preemptive.run: horizon %g is not finite and non-negative" horizon);
  Array.iteri (fun index a -> Appstate.validate ~procs ~index a) apps;
  let states = Array.map (fun a -> Appstate.make ~procs a) apps in
  let busy_actor =
    Array.map
      (fun (a : Appstate.app) -> Array.make (Sdf.Graph.num_actors a.graph) false)
      apps
  in
  let proc_states =
    Array.init procs (fun proc ->
        let owners =
          Array.of_list
            (List.concat
               (List.mapi
                  (fun ai (a : Appstate.app) ->
                    List.filter_map
                      (fun actor ->
                        if a.mapping.(actor) = proc then Some (ai, actor) else None)
                      (List.init (Array.length a.mapping) Fun.id))
                  (Array.to_list apps)))
        in
        let sharers = Int.max 1 (Array.length owners) in
        let slice = slice_of ~wheel ~sharers in
        {
          owners;
          slice;
          paused = Array.make sharers 0.;
          pending = Array.make sharers nan;
          slot_index = 0;
          slice_end = slice;
          running = None;
          generation = 0;
        })
  in
  let proc_busy = Array.make procs 0. in
  let total_firings = ref 0 in
  let heap : event Heap.t = Heap.create () in
  for proc = 0 to procs - 1 do
    Heap.push heap ~time:proc_states.(proc).slice (Boundary proc)
  done;
  let slot_of ps ai actor =
    let found = ref (-1) in
    Array.iteri (fun i owner -> if owner = (ai, actor) then found := i) ps.owners;
    assert (!found >= 0);
    !found
  in
  (* Begin executing [remaining] units of the current slot's work at [time];
     schedule the completion when it fits in the slice (the boundary event
     handles the pause otherwise). *)
  let start_segment proc time remaining =
    let ps = proc_states.(proc) in
    ps.generation <- ps.generation + 1;
    ps.running <- Some { slot = ps.slot_index; started = time; remaining };
    if time +. remaining <= ps.slice_end +. 1e-9 then
      Heap.push heap ~time:(time +. remaining) (Completion (proc, ps.generation))
  in
  let emit e = match on_event with Some f -> f e | None -> () in
  (* Occupy the current slot of [proc] at [time] if work is available:
     paused work first, then a pending arrival that has already happened. *)
  let try_start proc time =
    let ps = proc_states.(proc) in
    if ps.running = None && Array.length ps.owners > 0 then begin
      let slot = ps.slot_index in
      if ps.paused.(slot) > 0. then begin
        let remaining = ps.paused.(slot) in
        ps.paused.(slot) <- 0.;
        start_segment proc time remaining
      end
      else if (not (Float.is_nan ps.pending.(slot))) && ps.pending.(slot) <= time +. 1e-9
      then begin
        ps.pending.(slot) <- nan;
        let ai, actor = ps.owners.(slot) in
        emit (Engine.Start { time; app = ai; actor; proc });
        start_segment proc time (Sdf.Graph.actor apps.(ai).Appstate.graph actor).exec_time
      end
    end
  in
  let enabled ai actor =
    (not busy_actor.(ai).(actor)) && Appstate.tokens_enabled states.(ai) actor
  in
  (* An actor becomes ready: record the arrival and start it at once when its
     slice is currently open and idle. *)
  let arrive time ai actor =
    busy_actor.(ai).(actor) <- true;
    Appstate.consume_inputs states.(ai) actor;
    let proc = apps.(ai).Appstate.mapping.(actor) in
    let ps = proc_states.(proc) in
    let slot = slot_of ps ai actor in
    ps.pending.(slot) <- time;
    if ps.slot_index = slot then try_start proc time
  in
  let arrive_if_enabled time ai actor = if enabled ai actor then arrive time ai actor in
  let account proc ai spent =
    proc_busy.(proc) <- proc_busy.(proc) +. spent;
    states.(ai).Appstate.busy.(proc) <- states.(ai).Appstate.busy.(proc) +. spent
  in
  let finish_and_propagate proc time slot =
    let ps = proc_states.(proc) in
    let ai, actor = ps.owners.(slot) in
    emit (Engine.Finish { time; app = ai; actor; proc });
    busy_actor.(ai).(actor) <- false;
    Appstate.finish_firing states.(ai) ~warmup:warmup_iterations ~actor ~time;
    incr total_firings;
    arrive_if_enabled time ai actor;
    List.iter (arrive_if_enabled time ai) (Appstate.output_consumers states.(ai) actor)
  in
  let complete proc time =
    let ps = proc_states.(proc) in
    match ps.running with
    | None -> assert false
    | Some r ->
        account proc (fst ps.owners.(r.slot)) r.remaining;
        ps.running <- None;
        ps.generation <- ps.generation + 1;
        finish_and_propagate proc time r.slot;
        (* The freed slot may immediately serve the actor's next firing. *)
        try_start proc time
  in
  let boundary proc time =
    let ps = proc_states.(proc) in
    (* Settle the running segment first, but defer the completion
       propagation until after the wheel has rotated: re-enabling the
       finished actor must not let it steal the next owner's slice. *)
    let completed_slot = ref None in
    if Array.length ps.owners > 0 then begin
      (match ps.running with
      | Some r ->
          let elapsed = time -. r.started in
          let remaining = r.remaining -. elapsed in
          account proc (fst ps.owners.(r.slot)) elapsed;
          ps.running <- None;
          ps.generation <- ps.generation + 1;
          if remaining <= 1e-9 then
            (* Finished exactly at the boundary; its completion event at this
               instant is stale, so settle it here. *)
            completed_slot := Some r.slot
          else ps.paused.(r.slot) <- remaining
      | None -> ());
      ps.slot_index <- (ps.slot_index + 1) mod Array.length ps.owners
    end;
    ps.slice_end <- time +. ps.slice;
    Heap.push heap ~time:ps.slice_end (Boundary proc);
    (match !completed_slot with
    | Some slot -> finish_and_propagate proc time slot
    | None -> ());
    try_start proc time
  in
  (* Boot: everything initially enabled arrives at time 0. *)
  Array.iteri
    (fun ai (a : Appstate.app) ->
      for actor = 0 to Sdf.Graph.num_actors a.graph - 1 do
        arrive_if_enabled 0. ai actor
      done)
    apps;
  let now = ref 0. in
  let continue = ref true in
  while !continue do
    match Heap.pop heap with
    | None -> continue := false
    | Some (time, _) when time > horizon ->
        now := horizon;
        continue := false
    | Some (time, Boundary proc) ->
        now := time;
        boundary proc time
    | Some (time, Completion (proc, generation)) ->
        now := time;
        if proc_states.(proc).generation = generation then complete proc time
  done;
  ( Array.map Appstate.result states,
    { Engine.final_time = !now; total_firings = !total_firings; proc_busy; cycle = None } )
