type provenance = Memory_hit | Disk_hit | Miss

let provenance_name = function
  | Memory_hit -> "memory-hit"
  | Disk_hit -> "disk-hit"
  | Miss -> "miss"

let is_hit = function Memory_hit | Disk_hit -> true | Miss -> false

type outcome = {
  compiled : Record.Pipeline.compiled;
  provenance : provenance;
  key : string;
  wall_ms : float;
}

let compile ?cache ?salt ?(options = Record.Options.record_) machine prog =
  let t0 = Unix.gettimeofday () in
  let key = Key.make ?salt ~machine ~options prog in
  (* One warm matcher per (target, engine): its shared labelling state
     carries across every compilation this process runs for the machine. *)
  let matcher =
    Registry.matcher_for ~engine:options.Record.Options.matcher machine
  in
  let finish compiled provenance =
    {
      compiled;
      provenance;
      key;
      wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
    }
  in
  match cache with
  | None -> finish (Record.Pipeline.compile ~options ~matcher machine prog) Miss
  | Some cache -> (
    match Cache.find cache key with
    | Some (entry, tier) ->
      let compiled =
        {
          Record.Pipeline.machine;
          prog;
          options;
          asm = entry.Cache.asm;
          layout = entry.Cache.layout;
          pool = entry.Cache.pool;
          stats = entry.Cache.stats;
          selection = entry.Cache.selection;
          phase_ms = entry.Cache.phase_ms;
        }
      in
      finish compiled
        (match tier with Cache.Memory -> Memory_hit | Cache.Disk -> Disk_hit)
    | None ->
      let compiled = Record.Pipeline.compile ~options ~matcher machine prog in
      Cache.store cache key
        {
          Cache.asm = compiled.Record.Pipeline.asm;
          layout = compiled.Record.Pipeline.layout;
          pool = compiled.Record.Pipeline.pool;
          stats = compiled.Record.Pipeline.stats;
          selection = compiled.Record.Pipeline.selection;
          phase_ms = compiled.Record.Pipeline.phase_ms;
        };
      finish compiled Miss)
