(* Digest of [Sys.executable_name], memoized; a fixed string when the
   binary cannot be read.  The memo race under concurrent domains is
   benign: both losers compute the same digest of the same file and the
   cell only ever moves from [None] to that one value. *)
let executable_salt =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some s -> s
    | None ->
      let s =
        try Digest.to_hex (Digest.file Sys.executable_name)
        with Sys_error _ -> "record-no-executable-digest"
      in
      memo := Some s;
      s

let render_fingerprint (m : Target.Machine.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf m.name;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (string_of_int m.word_bits);
  Buffer.add_char buf '\n';
  List.iter
    (fun b ->
      Buffer.add_string buf b;
      Buffer.add_char buf ',')
    m.banks;
  Buffer.add_char buf '\n';
  List.iter
    (fun (mode, reset) ->
      Buffer.add_string buf mode;
      Buffer.add_char buf '=';
      Buffer.add_string buf (string_of_int reset);
      Buffer.add_char buf ',')
    m.modes;
  Buffer.add_char buf '\n';
  (* The grammar and register-file printers render every rule, cost, and
     register class; their output is a function of the structure alone, so
     it doubles as a structural encoding. *)
  Buffer.add_string buf (Format.asprintf "%a" Burg.Grammar.pp m.grammar);
  Buffer.add_string buf (Format.asprintf "%a" Target.Regfile.pp m.regfile);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Rendering the grammar costs more than the rest of a key, and every job
   asks for the fingerprint of one of a few long-lived machine values, so
   it is memoized per value.  Physical identity is a sound key: every
   field the fingerprint reads is immutable (a machine's only mutable
   state is the per-compile [ctx]), so one value always renders the same.
   There is one slot per machine name, and a different value under a known
   name (a re-registered ASIP, a reloaded MDL file) is rendered afresh and
   takes the slot over, so the memo never outgrows the set of names.  The
   lock covers only the slot lookup and update, never the rendering. *)
let fingerprints : (string, Target.Machine.t * string) Hashtbl.t =
  Hashtbl.create 16

let fingerprints_lock = Mutex.create ()

let machine_fingerprint (m : Target.Machine.t) =
  let slot =
    Mutex.protect fingerprints_lock (fun () ->
        Hashtbl.find_opt fingerprints m.name)
  in
  match slot with
  | Some (m', fp) when m' == m -> fp
  | _ ->
    let fp = render_fingerprint m in
    Mutex.protect fingerprints_lock (fun () ->
        Hashtbl.replace fingerprints m.name (m, fp));
    fp

let make ?salt ~machine ~options prog =
  let salt = match salt with Some s -> s | None -> executable_salt () in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "record-cache-v1\n";
  Buffer.add_string buf salt;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (machine_fingerprint machine);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Record.Options.to_string options);
  Buffer.add_char buf '\n';
  Ir.Prog.fold_digest buf prog;
  Digest.to_hex (Digest.string (Buffer.contents buf))
