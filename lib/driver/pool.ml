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

(* Workers finish the queued tasks, then see [closed] and return. *)
let close queue =
  Mutex.lock queue.lock;
  queue.closed <- true;
  Condition.broadcast queue.nonempty;
  Mutex.unlock queue.lock

let create ?domains () =
  let n = match domains with Some d -> d | None -> default_domains () in
  if n < 1 then
    invalid_arg
      (Printf.sprintf "Pool.create: domains must be at least 1, got %d" n);
  (* Fill the registry (machine list, one matcher per target) before any
     worker exists, so workers only read its tables.  The matchers'
     automata still grow as workers label, under their own lock. *)
  Registry.warm ();
  let queue =
    {
      q = Queue.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }
  in
  let started = ref [] in
  (try
     for _ = 1 to n do
       started := Domain.spawn (worker queue) :: !started
     done
   with Failure msg ->
     (* The runtime caps the number of live domains: join the workers
        already running rather than leak them. *)
     close queue;
     List.iter Domain.join !started;
     invalid_arg
       (Printf.sprintf "Pool.create: could not start %d domains (%d started): %s"
          n (List.length !started) msg));
  { queue; domains = Array.of_list !started }

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
  close t.queue;
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

(* A domain's seat.  The kept variant searches ([Ir.Algebra]) and the job
   deadline ([Ir.Deadline]) are domain-local and unsynchronized, and several
   systhreads of one domain may submit at once (serve's connection
   handlers), so a submitter computes jobs only while it holds its
   domain's seat. *)
let seat = Domain.DLS.new_key Mutex.create

let run_jobs t ?cache ?timeout jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let results = Array.make n None in
  let cursor = Atomic.make 0 in
  let remaining = ref n in
  let lock = Mutex.create () in
  let all_done = Condition.create () in
  (* Claim jobs until the cursor passes the end; each result goes to its
     job's index, so the output is the same whoever ran what. *)
  let rec drain () =
    let i = Atomic.fetch_and_add cursor 1 in
    if i < n then begin
      let r = exec ?cache ?timeout jobs.(i) in
      Mutex.lock lock;
      results.(i) <- Some r;
      decr remaining;
      if !remaining = 0 then Condition.signal all_done;
      Mutex.unlock lock;
      drain ()
    end
  in
  let seat = Domain.DLS.get seat in
  let seated = Mutex.try_lock seat in
  Fun.protect
    ~finally:(fun () -> if seated then Mutex.unlock seat)
    (fun () ->
      (* A seated caller takes one share of the work itself. *)
      for _ = 1 to min (size t) (if seated then n - 1 else n) do
        submit t drain
      done;
      if seated then drain ());
  Mutex.lock lock;
  while !remaining > 0 do
    Condition.wait all_done lock
  done;
  Mutex.unlock lock;
  Array.to_list results
  |> List.map (function
       | Some r -> r
       | None -> assert false (* remaining = 0 implies every slot filled *))
