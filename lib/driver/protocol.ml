(* Parsing of the JSON job protocol — one entry of a jobs file
   (see README "Batch compilation"):

     { "kernel": "fir" | "file": "path.dfl",
       "target": "tic25", "options": "record" | "conventional",
       "kind": "compile" | "simulate" | "timing",
       "label": ..., "inputs": {"x": [1,2]}, "deadline": 200 }

   Kernel jobs default to the kernel's bundled inputs and kind simulate;
   file jobs default to kind compile.  This used to live in the CLI's
   batch subcommand; it moved into the library so the serve daemon and
   the batch path decode requests with the same code (same defaults,
   same error messages). *)

(* A job's source file.  The open does not block (a FIFO without a writer
   would hold the decoding thread forever), and anything but a regular file
   is refused before a byte is read.  The file is read with [Unix.read]
   straight into a buffer of its [fstat] size: an [in_channel] would carry
   a 64 KB buffer that only its finaliser frees.  Failures are
   [Sys_error]s worded like [open_in]'s. *)
let read_file path =
  let fail e = raise (Sys_error (path ^ ": " ^ Unix.error_message e)) in
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (e, _, _) -> fail e
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let stat = try Unix.fstat fd with Unix.Unix_error (e, _, _) -> fail e in
      if stat.Unix.st_kind <> Unix.S_REG then
        raise (Sys_error (path ^ ": not a regular file"));
      let buf = Bytes.create stat.Unix.st_size in
      let rec fill off =
        if off < Bytes.length buf then
          match Unix.read fd buf off (Bytes.length buf - off) with
          | 0 -> Bytes.sub_string buf 0 off (* the file shrank *)
          | n -> fill (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
          | exception Unix.Unix_error (e, _, _) -> fail e
        else Bytes.unsafe_to_string buf
      in
      fill 0)

(* An optional member of a job object: absent is [Ok None]; present with
   the wrong type is an error naming the job, never a silent fallback to
   the default. *)
let typed_member id j name ~expected convert =
  match Json.member name j with
  | None -> Ok None
  | Some v -> (
    match convert v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "job %d: %S must be %s" id name expected))

let job_of_json ?selection id j =
  let ( let* ) = Result.bind in
  let str_field name =
    typed_member id j name ~expected:"a string" Json.to_string_lit
  in
  let* kernel_name = str_field "kernel" in
  let* file = str_field "file" in
  let* target = str_field "target" in
  let* options_member = str_field "options" in
  let* label = str_field "label" in
  let* kind_member = str_field "kind" in
  let* selection_member = str_field "selection" in
  let* deadline =
    typed_member id j "deadline" ~expected:"an integer" Json.to_int
  in
  let* source, prog, default_inputs, default_kind =
    match (kernel_name, file) with
    | Some k, None -> (
      match Dspstone.Kernels.find k with
      | kernel ->
        Ok
          ( "kernel " ^ k,
            Dspstone.Kernels.prog kernel,
            kernel.Dspstone.Kernels.inputs,
            Job.Simulate )
      | exception Not_found -> Error (Printf.sprintf "job %d: unknown kernel %s" id k))
    | None, Some f -> (
      match Dfl.Lower.source (read_file f) with
      | prog -> Ok ("file " ^ f, prog, [], Job.Compile)
      | exception (Dfl.Lexer.Error msg | Dfl.Parser.Error msg | Dfl.Lower.Error msg) ->
        Error (Printf.sprintf "job %d: %s: %s" id f msg)
      | exception Sys_error msg -> Error (Printf.sprintf "job %d: %s" id msg))
    | Some _, Some _ -> Error (Printf.sprintf "job %d: both \"kernel\" and \"file\"" id)
    | None, None -> Error (Printf.sprintf "job %d: needs \"kernel\" or \"file\"" id)
  in
  let target = Option.value target ~default:"tic25" in
  let* options_label, options =
    match Option.value options_member ~default:"record" with
    | "record" -> Ok ("record", Record.Options.record_)
    | "conventional" -> Ok ("conventional", Record.Options.conventional)
    | other -> Error (Printf.sprintf "job %d: unknown options %S" id other)
  in
  (* Selection mode: the job's optional "selection" member, overridden by
     the caller's [selection] (the batch CLI's [--selection] flag). The
     label is left alone — the mode shows up in the job's "selection"
     field and in its options digest. *)
  let* options =
    match selection with
    | Some mode -> Ok (Record.Options.with_selection_mode mode options)
    | None -> (
      match selection_member with
      | None -> Ok options
      | Some s -> (
        match Record.Options.selection_mode_of_string s with
        | Some mode -> Ok (Record.Options.with_selection_mode mode options)
        | None ->
          Error (Printf.sprintf "job %d: unknown selection %S" id s)))
  in
  let* kind =
    match kind_member with
    | None -> Ok (if deadline <> None then Job.Timing { deadline } else default_kind)
    | Some "compile" -> Ok Job.Compile
    | Some "simulate" -> Ok Job.Simulate
    | Some "timing" -> Ok (Job.Timing { deadline })
    | Some other -> Error (Printf.sprintf "job %d: unknown kind %S" id other)
  in
  let* inputs =
    match Json.member "inputs" j with
    | None -> Ok default_inputs
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (name, v) ->
          let* acc = acc in
          match Option.map (List.map Json.to_int) (Json.to_list v) with
          | Some values when List.for_all Option.is_some values ->
            Ok ((name, Array.of_list (List.map Option.get values)) :: acc)
          | Some _ | None ->
            Error (Printf.sprintf "job %d: input %s must be an integer array" id name))
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error (Printf.sprintf "job %d: \"inputs\" must be an object" id)
  in
  let* () =
    Result.map_error
      (Printf.sprintf "job %d: %s" id)
      (Ir.Prog.check_inputs prog inputs)
  in
  Ok
    (Job.make ~id ?label ~source ~target ~options_label
       ~options ~inputs ~kind prog)

let jobs_of_json ?selection doc =
  let entries =
    match doc with
    | Json.List entries -> Ok entries
    | Json.Obj _ -> (
      match Json.member "jobs" doc with
      | Some (Json.List entries) -> Ok entries
      | Some _ | None -> Error "jobs file: expected a \"jobs\" array")
    | _ -> Error "jobs file: expected an array or an object with \"jobs\""
  in
  Result.bind entries (fun entries ->
      List.fold_left
        (fun (acc : (Job.t list, string) result) (i, entry) ->
          Result.bind acc (fun jobs ->
              Result.map (fun j -> j :: jobs) (job_of_json ?selection i entry)))
        (Ok [])
        (List.mapi (fun i e -> (i, e)) entries)
      |> Result.map List.rev)
