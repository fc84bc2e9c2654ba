type entry = {
  asm : Target.Asm.t;
  layout : Target.Layout.t;
  pool : (string * int) list;
  stats : Record.Pipeline.stats;
  selection : Record.Pipeline.selection_stats;
  phase_ms : (string * float) list;
}

type tier = Memory | Disk

type counters = {
  memory_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;
  corrupt : int;
}

(* One mutex guards the memory tier and the counters; every domain of the
   serve pool shares one cache value.  Disk I/O runs outside the lock —
   the disk tier is already safe under concurrent processes (atomic
   rename, verified envelopes), which covers concurrent domains too. *)
type t = {
  lock : Mutex.t;
  slots : (string, entry * int ref) Hashtbl.t;  (* key -> entry, last-use tick *)
  capacity : int;
  mutable tick : int;
  dir : string option;
  mutable memory_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable corrupt : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some base when base <> "" -> Filename.concat base "record"
  | _ ->
    let home =
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> h
      | _ -> Filename.get_temp_dir_name ()
    in
    Filename.concat (Filename.concat home ".cache") "record"

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(memory_slots = 256) ?dir () =
  let dir =
    match dir with
    | None -> None
    | Some d -> ( try mkdir_p d; Some d with Unix.Unix_error _ | Sys_error _ -> None)
  in
  {
    lock = Mutex.create ();
    slots = Hashtbl.create 64;
    capacity = max 1 memory_slots;
    tick = 0;
    dir;
    memory_hits = 0;
    disk_hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    corrupt = 0;
  }

let dir t = t.dir

let counters t =
  locked t (fun () ->
      {
        memory_hits = t.memory_hits;
        disk_hits = t.disk_hits;
        misses = t.misses;
        stores = t.stores;
        evictions = t.evictions;
        corrupt = t.corrupt;
      })

(* ---- memory tier (call with the lock held) -------------------------------- *)

let touch t last = t.tick <- t.tick + 1; last := t.tick

let memory_put t key entry =
  if not (Hashtbl.mem t.slots key) then begin
    if Hashtbl.length t.slots >= t.capacity then begin
      (* Evict the least recently used slot.  A linear scan is fine: the
         tier is a few hundred entries and eviction is off every hot path
         (a store already paid for a full compilation). *)
      let victim = ref None in
      Hashtbl.iter
        (fun k (_, last) ->
          match !victim with
          | Some (_, best) when !last >= best -> ()
          | _ -> victim := Some (k, !last))
        t.slots;
      match !victim with
      | Some (k, _) ->
        Hashtbl.remove t.slots k;
        t.evictions <- t.evictions + 1
      | None -> ()
    end;
    let last = ref 0 in
    touch t last;
    Hashtbl.replace t.slots key (entry, last)
  end

(* ---- disk tier ----------------------------------------------------------- *)

(* Version 5: the selection counters lost the exhaustive-search fields
   (exh_trees, exh_wins), so v4 marshalled payloads no longer match the
   entry layout.  The bump invalidates them wholesale. *)
let magic = "RECORD-CACHE-5\n"

let entry_path base key = Filename.concat base key

(* Lock-free; reports corruption to the caller instead of mutating
   counters, so the caller can account for it under the lock. *)
let disk_read base key =
  let path = entry_path base key in
  let drop () =
    (try Sys.remove path with Sys_error _ -> ());
    `Corrupt
  in
  match open_in_bin path with
  | exception Sys_error _ -> `Absent
  | ic -> (
    let result =
      try
        let m = really_input_string ic (String.length magic) in
        if m <> magic then None
        else begin
          let stored_key = input_line ic in
          let payload_digest = input_line ic in
          let remaining = in_channel_length ic - pos_in ic in
          let payload = really_input_string ic remaining in
          if
            stored_key = key
            && Digest.to_hex (Digest.string payload) = payload_digest
          then Some (Marshal.from_string payload 0 : entry)
          else None
        end
      with
      | End_of_file | Sys_error _ | Failure _ -> None
    in
    close_in_noerr ic;
    match result with
    | Some e -> `Hit e
    | None -> drop ())

let disk_write base key entry =
  try
    let payload = Marshal.to_string entry [] in
    let tmp =
      Filename.concat base
        (Printf.sprintf ".tmp.%s.%d" key (Unix.getpid ()))
    in
    let oc = open_out_bin tmp in
    output_string oc magic;
    output_string oc key;
    output_char oc '\n';
    output_string oc (Digest.to_hex (Digest.string payload));
    output_char oc '\n';
    output_string oc payload;
    close_out oc;
    (* Atomic publish: readers either see the old complete entry or the new
       complete entry, never a prefix. *)
    Unix.rename tmp (entry_path base key)
  with Sys_error _ | Unix.Unix_error _ -> ()

(* ---- public api ---------------------------------------------------------- *)

let find t key =
  let memory =
    locked t (fun () ->
        match Hashtbl.find_opt t.slots key with
        | Some (entry, last) ->
          touch t last;
          t.memory_hits <- t.memory_hits + 1;
          Some entry
        | None -> None)
  in
  match memory with
  | Some entry -> Some (entry, Memory)
  | None -> (
    match t.dir with
    | None ->
      locked t (fun () -> t.misses <- t.misses + 1);
      None
    | Some base -> (
      match disk_read base key with
      | `Hit entry ->
        locked t (fun () ->
            t.disk_hits <- t.disk_hits + 1;
            memory_put t key entry);
        Some (entry, Disk)
      | `Corrupt ->
        locked t (fun () ->
            t.corrupt <- t.corrupt + 1;
            t.misses <- t.misses + 1);
        None
      | `Absent ->
        locked t (fun () -> t.misses <- t.misses + 1);
        None))

let store t key entry =
  locked t (fun () ->
      t.stores <- t.stores + 1;
      memory_put t key entry);
  match t.dir with
  | None -> ()
  | Some base -> disk_write base key entry
