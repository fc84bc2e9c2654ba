(* In-memory spans and counters for the traced run.

   A span is recorded by the benchmark around one call into a layer: name,
   start, end, the enclosing span, and the unit it belongs to.  Spans stay
   in memory until the run ends; self time is a span's duration minus the
   part of its interval that its children cover, so the self times of all
   spans under a unit, plus the unit's own self time (the remainder no
   layer accounts for), add up to the unit's wall time. *)

type span = {
  id : int;
  name : string;
  unit_id : int;  (** -1 for spans recorded during set-up *)
  parent : int;  (** -1 at top level *)
  start : float;  (** seconds since the epoch *)
  stop : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;  (** open spans, innermost first *)
  mutable next_id : int;
  mutable unit_id : int;
  counters : (string, float) Hashtbl.t;
  mutable events : (string * (string * float) list) list;
      (** per-occurrence records (automaton builds, sim jobs), newest first *)
}

let create () =
  {
    spans = [];
    stack = [];
    next_id = 0;
    unit_id = -1;
    counters = Hashtbl.create 64;
    events = [];
  }

let now = Unix.gettimeofday

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let parent t = match t.stack with p :: _ -> p | [] -> -1

let record t ~id ~name ~parent ~start ~stop =
  t.spans <- { id; name; unit_id = t.unit_id; parent; start; stop } :: t.spans

(* Time [f] as a span named [name], nested in whatever span is open;
   returns its value and duration in ms. *)
let span_ms t name f =
  let id = fresh_id t in
  let parent = parent t in
  t.stack <- id :: t.stack;
  let start = now () in
  let finish () =
    let stop = now () in
    record t ~id ~name ~parent ~start ~stop;
    t.stack <- List.tl t.stack;
    (stop -. start) *. 1000.0
  in
  match f () with
  | v -> (v, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let span t name f = fst (span_ms t name f)

(* A span whose duration a layer measured itself (the pipeline's
   [phase_ms]), laid out back to back from [start] inside the open span. *)
let add_measured t ~start phases =
  let parent = parent t in
  ignore
    (List.fold_left
       (fun at (name, ms) ->
         let stop = at +. (ms /. 1000.0) in
         record t ~id:(fresh_id t) ~name ~parent ~start:at ~stop;
         stop)
       start phases)

(* Run [f] as unit [unit_id]: its root span is named "unit". *)
let unit_span t unit_id f =
  t.unit_id <- unit_id;
  let v = span t "unit" f in
  t.unit_id <- -1;
  v

let add t key v =
  Hashtbl.replace t.counters key
    (v +. Option.value (Hashtbl.find_opt t.counters key) ~default:0.0)

let counter t key = Option.value (Hashtbl.find_opt t.counters key) ~default:0.0

let event t kind fields = t.events <- (kind, fields) :: t.events

let events t kind =
  List.rev
    (List.filter_map
       (fun (k, fields) -> if k = kind then Some fields else None)
       t.events)

(* Self time of every span, in seconds: duration minus the union of its
   children's intervals clipped to it. *)
let self_times t =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun (s : span) ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    t.spans;
  List.map
    (fun (s : span) ->
      let kids =
        List.sort compare
          (Option.value (Hashtbl.find_opt children s.id) ~default:[])
      in
      let covered, _ =
        List.fold_left
          (fun (covered, reach) (a, b) ->
            let a = Float.max a (Float.max reach s.start)
            and b = Float.min b s.stop in
            if b > a then (covered +. (b -. a), b) else (covered, reach))
          (0.0, s.start) kids
      in
      (s, Float.max 0.0 (s.stop -. s.start -. covered)))
    t.spans

(* Summed self time (ms) per span name, over the spans of traced units. *)
let self_ms_by_name t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : span), self) ->
      if s.unit_id >= 0 then
        Hashtbl.replace tbl s.name
          ((self *. 1000.0)
          +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0))
    (self_times t);
  tbl

(* Durations (ms) of every span with this name, oldest first. *)
let durations_ms t name =
  List.rev
    (List.filter_map
       (fun (s : span) -> if s.name = name then Some ((s.stop -. s.start) *. 1000.0) else None)
       t.spans)

let to_json t =
  let open Driver.Json in
  let origin =
    List.fold_left (fun acc (s : span) -> Float.min acc s.start) infinity t.spans
  in
  let us x = Int (int_of_float ((x -. origin) *. 1e6)) in
  (* Chrome trace-event format: load the file in a trace viewer. *)
  List
    (List.rev_map
       (fun (s : span) ->
         Obj
           [
             ("name", String s.name);
             ("ph", String "X");
             ("ts", us s.start);
             ("dur", Int (int_of_float ((s.stop -. s.start) *. 1e6)));
             ("pid", Int 1);
             ("tid", Int 1);
             ( "args",
               Obj
                 [
                   ("id", Int s.id); ("parent", Int s.parent);
                   ("unit", Int s.unit_id);
                 ] );
           ])
       t.spans)
