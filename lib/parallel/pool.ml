(* A fixed set of worker domains draining a shared queue. One mutex
   guards everything (the queue, the shutdown flag, and each map's
   completion counter and result slots); two conditions signal "work
   arrived" to workers and "a result landed" to the waiting caller.
   Tasks are thunks that have already captured their result slot, so
   the pool itself is untyped. *)

type t = {
  mutex : Mutex.t;
  work_arrived : Condition.t;  (* workers wait here *)
  result_landed : Condition.t;  (* the mapping caller waits here *)
  queue : (unit -> unit) Queue.t;
  mutable shutting_down : bool;
  mutable domains : unit Domain.t array;
}

let default_jobs () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

let worker pool =
  let rec loop () =
    Mutex.lock pool.mutex;
    while Queue.is_empty pool.queue && not pool.shutting_down do
      Condition.wait pool.work_arrived pool.mutex
    done;
    if Queue.is_empty pool.queue then begin
      (* shutting down and drained *)
      Mutex.unlock pool.mutex
    end
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.mutex;
      task ();
      loop ()
    end
  in
  loop ()

let create ?jobs () =
  let jobs =
    Stdlib.max 1 (match jobs with Some j -> j | None -> default_jobs ())
  in
  let pool =
    {
      mutex = Mutex.create ();
      work_arrived = Condition.create ();
      result_landed = Condition.create ();
      queue = Queue.create ();
      shutting_down = false;
      domains = [||];
    }
  in
  pool.domains <-
    Array.init jobs (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  let already = pool.shutting_down in
  pool.shutting_down <- true;
  Condition.broadcast pool.work_arrived;
  Mutex.unlock pool.mutex;
  if not already then Array.iter Domain.join pool.domains

type 'b slot =
  | Empty
  | Ok_ of 'b
  | Err of exn * Printexc.raw_backtrace
  | Discarded  (* queued behind a failure in the same batch; never ran *)

let map_on pool f xs =
  let items = Array.of_list xs in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let results = Array.make n Empty in
    let remaining = ref n in
    (* One flag per batch: the first failure flips it, and every thunk
       of the batch that has not started yet completes as [Discarded]
       instead of running — a poisoned batch cannot occupy the workers
       past its first error, and the workers themselves stay reusable
       for the next batch. *)
    let poisoned = ref false in
    Mutex.lock pool.mutex;
    if pool.shutting_down then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool.map: pool is shut down"
    end;
    for i = 0 to n - 1 do
      Queue.push
        (fun () ->
          Mutex.lock pool.mutex;
          let skip = !poisoned in
          Mutex.unlock pool.mutex;
          let r =
            if skip then Discarded
            else
              match f items.(i) with
              | y -> Ok_ y
              | exception e -> Err (e, Printexc.get_raw_backtrace ())
          in
          Mutex.lock pool.mutex;
          (match r with Err _ -> poisoned := true | _ -> ());
          results.(i) <- r;
          decr remaining;
          if !remaining = 0 then Condition.broadcast pool.result_landed;
          Mutex.unlock pool.mutex)
        pool.queue
    done;
    Condition.broadcast pool.work_arrived;
    while !remaining > 0 do
      Condition.wait pool.result_landed pool.mutex
    done;
    Mutex.unlock pool.mutex;
    (* join in submission order; earliest failure wins *)
    Array.iter
      (function
        | Err (e, bt) -> Printexc.raise_with_backtrace e bt
        | Ok_ _ | Empty | Discarded -> ())
      results;
    List.init n (fun i ->
        match results.(i) with
        | Ok_ y -> y
        | Empty | Err _ | Discarded -> assert false)
  end

let map ?pool f xs =
  match pool with None -> List.map f xs | Some pool -> map_on pool f xs

let with_pool ?jobs f =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs <= 1 then f None
  else begin
    let pool = create ~jobs () in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f (Some pool))
  end
