type storage = Input | Output | Temp

type decl = { name : string; size : int; storage : storage }

type stmt = { dst : Mref.t; src : Tree.t }

type item =
  | Stmt of stmt
  | Loop of loop

and loop = { ivar : string; count : int; body : item list }

type t = { name : string; decls : decl list; body : item list }

let scalar_decl ?(storage = Temp) name = { name; size = 1; storage }

let array_decl ?(storage = Temp) name size =
  if size < 1 then invalid_arg "Prog.array_decl: size < 1";
  { name; size; storage }

let assign dst src = Stmt { dst; src }
let loop ivar count body = Loop { ivar; count; body }

let find_decl_in decls name =
  List.find_opt (fun (d : decl) -> d.name = name) decls

(* Well-formedness: every reference resolves, indices stay in bounds for the
   whole induction range, loop variables are distinct from declarations and
   from enclosing loop variables. *)
let validate prog =
  let ( let* ) = Result.bind in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_ref loops (r : Mref.t) =
    match find_decl_in prog.decls r.base with
    | None -> err "undeclared variable %s" r.base
    | Some d -> (
      match r.index with
      | Mref.Direct ->
        if d.size = 1 then Ok ()
        else err "array %s used as a scalar" r.base
      | Mref.Elem k ->
        if k >= 0 && k < d.size then Ok ()
        else err "%s[%d] out of bounds (size %d)" r.base k d.size
      | Mref.Induct { ivar; offset; step } -> (
        match List.assoc_opt ivar loops with
        | None -> err "induction variable %s not in scope in %s" ivar
                    (Mref.to_string r)
        | Some count ->
          let first = offset in
          let last = offset + (step * (count - 1)) in
          let lo = min first last and hi = max first last in
          if lo >= 0 && hi < d.size then Ok ()
          else
            err "%s out of bounds for size %d (trip count %d)"
              (Mref.to_string r) d.size count))
  in
  let rec check_item loops = function
    | Stmt { dst; src } ->
      let* () = check_ref loops dst in
      List.fold_left
        (fun acc r ->
          let* () = acc in
          check_ref loops r)
        (Ok ()) (Tree.refs src)
    | Loop { ivar; count; body } ->
      if count < 1 then err "loop over %s has trip count %d" ivar count
      else if List.mem_assoc ivar loops then
        err "loop variable %s shadows an enclosing loop" ivar
      else if find_decl_in prog.decls ivar <> None then
        err "loop variable %s shadows a declaration" ivar
      else check_items ((ivar, count) :: loops) body
  and check_items loops items =
    List.fold_left
      (fun acc item ->
        let* () = acc in
        check_item loops item)
      (Ok ()) items
  in
  let* () =
    let dup =
      let seen = Hashtbl.create 16 in
      List.find_opt
        (fun (d : decl) ->
          if Hashtbl.mem seen d.name then true
          else (
            Hashtbl.add seen d.name ();
            false))
        prog.decls
    in
    match dup with
    | Some d -> err "duplicate declaration of %s" d.name
    | None -> Ok ()
  in
  check_items [] prog.body

let make ~name ~decls body =
  let prog = { name; decls; body } in
  match validate prog with
  | Ok () -> prog
  | Error msg -> invalid_arg (Printf.sprintf "Prog.make (%s): %s" name msg)

let stmts prog =
  let rec go acc = function
    | Stmt s -> s :: acc
    | Loop { body; _ } -> List.fold_left go acc body
  in
  List.rev (List.fold_left go [] prog.body)

let find_decl prog name = find_decl_in prog.decls name

let check_inputs prog inputs =
  List.fold_left
    (fun acc (name, values) ->
      Result.bind acc (fun () ->
          match find_decl prog name with
          | None ->
            Error
              (Printf.sprintf "input %S: %s declares no such variable" name
                 prog.name)
          | Some d when d.size <> Array.length values ->
            Error
              (Printf.sprintf "input %S has %d values, %s declares %d" name
                 (Array.length values) prog.name d.size)
          | Some _ -> Ok ()))
    (Ok ()) inputs

let pp ppf prog =
  let open Format in
  fprintf ppf "@[<v>program %s@," prog.name;
  List.iter
    (fun d ->
      let kind =
        match d.storage with
        | Input -> "input"
        | Output -> "output"
        | Temp -> "var"
      in
      if d.size = 1 then fprintf ppf "  %s %s@," kind d.name
      else fprintf ppf "  %s %s[%d]@," kind d.name d.size)
    prog.decls;
  let rec pp_item indent item =
    match item with
    | Stmt { dst; src } ->
      fprintf ppf "%s%s = %s@," indent (Mref.to_string dst)
        (Tree.to_string src)
    | Loop { ivar; count; body } ->
      fprintf ppf "%sfor %s = 0 to %d do@," indent ivar (count - 1);
      List.iter (pp_item (indent ^ "  ")) body;
      fprintf ppf "%send@," indent
  in
  List.iter (pp_item "  ") prog.body;
  fprintf ppf "@]"

(* ---- Structural digest --------------------------------------------------- *)

(* A stable content fingerprint: every field of every node is folded into a
   buffer with explicit tags and separators, so two programs digest equal
   exactly when they are structurally equal.  Nothing here depends on
   [Hashtbl.hash] (unstable across compiler versions and unsound on
   functional values) or on pretty-printer output (which may evolve for
   human readers without meaning a semantic change). *)
let fold_digest buf prog =
  let str s =
    (* Length-prefixed, so "ab"^"c" and "a"^"bc" cannot collide. *)
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let int k =
    Buffer.add_string buf (string_of_int k);
    Buffer.add_char buf ';'
  in
  let mref (r : Mref.t) =
    str r.base;
    match r.index with
    | Mref.Direct -> Buffer.add_char buf 'D'
    | Mref.Elem k ->
      Buffer.add_char buf 'E';
      int k
    | Mref.Induct { ivar; offset; step } ->
      Buffer.add_char buf 'I';
      str ivar;
      int offset;
      int step
  in
  (* Statement trees fold with the shared tree encoding, so a subtree's
     standalone digest ({!Tree.fold_digest}) and its occurrence inside a
     program digest agree byte for byte. *)
  let tree t = Tree.fold_digest buf t in
  let rec item it =
    match it with
    | Stmt { dst; src } ->
      Buffer.add_char buf '=';
      mref dst;
      tree src
    | Loop { ivar; count; body } ->
      Buffer.add_char buf 'L';
      str ivar;
      int count;
      List.iter item body;
      Buffer.add_char buf 'l'
  in
  str prog.name;
  List.iter
    (fun (d : decl) ->
      Buffer.add_char buf 'd';
      str d.name;
      int d.size;
      Buffer.add_char buf
        (match d.storage with Input -> 'i' | Output -> 'o' | Temp -> 't'))
    prog.decls;
  List.iter item prog.body

let digest prog =
  let buf = Buffer.create 256 in
  fold_digest buf prog;
  Digest.to_hex (Digest.string (Buffer.contents buf))
