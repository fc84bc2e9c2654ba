(* A fixed pool of OCaml 5 domains draining one MPMC task queue.

   The queue is deliberately hand-rolled from [Mutex]/[Condition]: tasks
   are whole compilation jobs (milliseconds each), so one uncontended lock
   per dispatch is noise and work stealing would buy nothing.  Producers
   ([submit]) may live on any domain or systhread — the serve daemon's
   connection handlers all feed the same pool, which is what multiplexes
   many clients onto one warm compiler. *)

type queue = {
  q : (unit -> unit) Queue.t;
  lock : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

type t = { queue : queue; domains : unit Domain.t array }

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let worker queue () =
  let rec loop () =
    Mutex.lock queue.lock;
    let rec next () =
      if not (Queue.is_empty queue.q) then Some (Queue.pop queue.q)
      else if queue.closed then None
      else begin
        Condition.wait queue.nonempty queue.lock;
        next ()
      end
    in
    let task = next () in
    Mutex.unlock queue.lock;
    match task with
    | None -> ()
    | Some f ->
      (* Tasks are expected to handle their own failures ([run_jobs] maps
         exceptions to Failed results); a raise reaching here must not
         take the worker down with it. *)
      (try f () with _ -> ());
      loop ()
  in
  loop ()

let create ?domains () =
  let n = max 1 (match domains with Some d -> d | None -> default_domains ()) in
  (* Build every lazily-initialized shared structure (machine list, one
     matcher per target) before any worker exists, so workers only ever
     read them. *)
  Registry.warm ();
  let queue =
    {
      q = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }
  in
  { queue; domains = Array.init n (fun _ -> Domain.spawn (worker queue)) }

let size t = Array.length t.domains

let submit t f =
  Mutex.lock t.queue.lock;
  if t.queue.closed then begin
    Mutex.unlock t.queue.lock;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push f t.queue.q;
  Condition.signal t.queue.nonempty;
  Mutex.unlock t.queue.lock

let shutdown t =
  Mutex.lock t.queue.lock;
  t.queue.closed <- true;
  Condition.broadcast t.queue.nonempty;
  Mutex.unlock t.queue.lock;
  Array.iter Domain.join t.domains

(* ---- batch-of-jobs convenience ------------------------------------------- *)

let exec ?cache ?timeout (job : Job.t) =
  match Job.run ?cache ?timeout job with
  | result -> result
  | exception e ->
    {
      Job.job = job.Job.id;
      label = job.Job.label;
      status = Job.Failed (Printexc.to_string e);
    }

let run_jobs t ?cache ?timeout jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let results = Array.make n None in
  let remaining = ref n in
  let lock = Mutex.create () in
  let all_done = Condition.create () in
  Array.iteri
    (fun i job ->
      submit t (fun () ->
          let r = exec ?cache ?timeout job in
          Mutex.lock lock;
          results.(i) <- Some r;
          decr remaining;
          if !remaining = 0 then Condition.signal all_done;
          Mutex.unlock lock))
    jobs;
  Mutex.lock lock;
  while !remaining > 0 do
    Condition.wait all_done lock
  done;
  Mutex.unlock lock;
  Array.to_list results
  |> List.map (function
       | Some r -> r
       | None -> assert false (* remaining = 0 implies every slot filled *))
