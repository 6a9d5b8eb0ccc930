(* The discrete-event engine as it stood before the flat-array rewrite of
   [Desim.Engine], kept verbatim as a test-only differential oracle: the
   rewrite must reproduce its results, statistics and event stream bit for
   bit.  Only the module paths are qualified and the types re-exported from
   [Desim.Engine], so that both engines' outputs compare directly.  It steps
   every firing, so its [cycle] is always [None]. *)

open Desim

type app = Engine.app = { graph : Sdf.Graph.t; mapping : int array }

type event = Engine.event =
  | Start of { time : float; app : int; actor : int; proc : int }
  | Finish of { time : float; app : int; actor : int; proc : int }

type result = Engine.result = {
  app_name : string;
  iterations : int;
  avg_period : float;
  max_period : float;
  min_period : float;
  busy_time : float array;
}

type stats = Engine.stats = {
  final_time : float;
  total_firings : int;
  proc_busy : float array;
  cycle : Engine.cycle option;
}

type arbitration = Engine.arbitration =
  | Fcfs
  | Fixed_priority
  | Static_order of (int * int) array array

type actor_state = Idle | Queued | Running

(* Remove one occurrence of [chosen] from the queue, preserving the arrival
   order of the rest. *)
let remove_from_queue queue chosen =
  let rest = Queue.create () in
  let removed = ref false in
  Queue.iter
    (fun entry ->
      if (not !removed) && entry = chosen then removed := true
      else Queue.add entry rest)
    queue;
  Queue.clear queue;
  Queue.transfer rest queue;
  !removed

(* Remove and return the queued entry the policy selects; FCFS is the plain
   queue head, fixed priority scans for the minimal (app, actor) pair, and
   static order waits for the next scheduled entry (tracked by [order_pos]). *)
let take_next arbitration order_pos proc queue =
  match arbitration with
  | Fcfs -> Queue.take_opt queue
  | Fixed_priority ->
      if Queue.is_empty queue then None
      else begin
        let best = Queue.fold (fun acc entry ->
            match acc with
            | Some b when compare b entry <= 0 -> acc
            | _ -> Some entry)
            None queue
        in
        match best with
        | None -> None
        | Some chosen ->
            let _ = remove_from_queue queue chosen in
            Some chosen
      end
  | Static_order orders ->
      let order = orders.(proc) in
      if Array.length order = 0 then None
      else begin
        let scheduled = order.(order_pos.(proc) mod Array.length order) in
        if remove_from_queue queue scheduled then begin
          order_pos.(proc) <- (order_pos.(proc) + 1) mod Array.length order;
          Some scheduled
        end
        else None
      end

let run ?(horizon = 500_000.) ?(warmup_iterations = 20) ?on_event ?firing_time
    ?(arbitration = Fcfs) ~procs apps =
  if Array.length apps = 0 then invalid_arg "Desim.Engine.run: no applications";
  if procs < 1 then invalid_arg "Desim.Engine.run: procs < 1";
  Array.iteri (fun index a -> Appstate.validate ~procs ~index a) apps;
  (match arbitration with
  | Static_order orders ->
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
                  (Printf.sprintf
                     "Desim.Engine: order on processor %d names actor mapped to %d" proc
                     apps.(ai).mapping.(actor)))
            order)
        orders
  | Fcfs | Fixed_priority -> ());
  let order_pos = Array.make procs 0 in
  let states = Array.map (fun a -> Appstate.make ~procs a) apps in
  let actor_states =
    Array.map (fun a -> Array.make (Sdf.Graph.num_actors a.graph) Idle) apps
  in
  let queues = Array.init procs (fun _ -> Queue.create ()) in
  let proc_running = Array.make procs None in
  let proc_busy = Array.make procs 0. in
  let heap = Heap.create () in
  let total_firings = ref 0 in
  let emit e = match on_event with Some f -> f e | None -> () in
  let enabled ai actor =
    actor_states.(ai).(actor) = Idle && Appstate.tokens_enabled states.(ai) actor
  in
  let enqueue ai actor =
    actor_states.(ai).(actor) <- Queued;
    Queue.add (ai, actor) queues.(states.(ai).Appstate.app.mapping.(actor))
  in
  let start_service time proc =
    match take_next arbitration order_pos proc queues.(proc) with
    | None -> ()
    | Some (ai, actor) ->
        let st = states.(ai) in
        assert (actor_states.(ai).(actor) = Queued);
        Appstate.consume_inputs st actor;
        actor_states.(ai).(actor) <- Running;
        proc_running.(proc) <- Some (ai, actor);
        let tau =
          match firing_time with
          | None -> (Sdf.Graph.actor st.Appstate.app.graph actor).exec_time
          | Some f ->
              let tau = f ~app:ai ~actor in
              if tau <= 0. then
                invalid_arg
                  (Printf.sprintf "Desim.Engine: firing_time %g for app %d actor %d"
                     tau ai actor)
              else tau
        in
        proc_busy.(proc) <- proc_busy.(proc) +. tau;
        st.Appstate.busy.(proc) <- st.Appstate.busy.(proc) +. tau;
        emit (Start { time; app = ai; actor; proc });
        Heap.push heap ~time:(time +. tau) (ai, actor)
  in
  let finish time ai actor =
    let st = states.(ai) in
    let proc = st.Appstate.app.mapping.(actor) in
    proc_running.(proc) <- None;
    actor_states.(ai).(actor) <- Idle;
    Appstate.finish_firing st ~warmup:warmup_iterations ~actor ~time;
    incr total_firings;
    emit (Finish { time; app = ai; actor; proc });
    (* The finished actor itself and the consumers of its output channels may
       have become enabled. *)
    if enabled ai actor then enqueue ai actor;
    List.iter
      (fun dst -> if enabled ai dst then enqueue ai dst)
      (Appstate.output_consumers st actor)
  in
  (* Boot: queue everything initially enabled, start the processors. *)
  Array.iteri
    (fun ai (a : app) ->
      for actor = 0 to Sdf.Graph.num_actors a.graph - 1 do
        if enabled ai actor then enqueue ai actor
      done)
    apps;
  for proc = 0 to procs - 1 do
    start_service 0. proc
  done;
  let now = ref 0. in
  let running = ref true in
  while !running do
    match Heap.pop heap with
    | None -> running := false
    | Some (time, (ai, actor)) ->
        if time > horizon then begin
          running := false;
          now := horizon
        end
        else begin
          now := time;
          finish time ai actor;
          (* Drain every completion scheduled for this same instant before
             any service decision, so arbitration sees the full state of
             time [time]. *)
          let same_instant = ref true in
          while !same_instant do
            match Heap.peek_time heap with
            | Some t when t = time -> (
                match Heap.pop heap with
                | Some (_, (ai, actor)) -> finish time ai actor
                | None -> same_instant := false)
            | Some _ | None -> same_instant := false
          done;
          (* Idle processors with waiting work pick their next firing. *)
          for proc = 0 to procs - 1 do
            if proc_running.(proc) = None && not (Queue.is_empty queues.(proc)) then
              start_service time proc
          done
        end
  done;
  ( Array.map Appstate.result states,
    { final_time = !now; total_firings = !total_firings; proc_busy; cycle = None } )

let utilisation stats =
  if stats.final_time <= 0. then Array.map (fun _ -> 0.) stats.proc_busy
  else Array.map (fun b -> b /. stats.final_time) stats.proc_busy
