(* Value nodes are keyed by (operator, child ids, leaf payload with version) so
   structurally equal expressions over the same variable versions share one
   node. Versions are per base name and bump on any write to that base, which
   is a sound (conservative) treatment of array aliasing. *)

type key =
  | Kconst of int
  | Kref of Mref.t * int  (* reference, version of its base at read time *)
  | Kunop of Op.unop * int
  | Kbinop of Op.binop * int * int

type node = {
  id : int;
  key : key;
  mutable uses : int;
  mutable protected : bool;
      (* the node occurs under a Sat operator somewhere: materializing it in
         a word-sized temporary would wrap the exact value saturation needs,
         so it must never be cut out of its tree *)
}

type t = {
  nodes : node array;  (* by id *)
  roots : (Prog.stmt * int) list;  (* original stmt, src node id *)
}

type builder = {
  table : (key, int) Hashtbl.t;
  mutable acc : node list;
  mutable next : int;
  versions : (string, int) Hashtbl.t;
}

let version b base =
  Option.value ~default:0 (Hashtbl.find_opt b.versions base)

let bump b base = Hashtbl.replace b.versions base (version b base + 1)

let intern b key =
  match Hashtbl.find_opt b.table key with
  | Some id -> id
  | None ->
    let id = b.next in
    b.next <- id + 1;
    let n = { id; key; uses = 0; protected = false } in
    b.acc <- n :: b.acc;
    Hashtbl.replace b.table key id;
    id

let mark_protected b id =
  match List.find_opt (fun n -> n.id = id) b.acc with
  | Some n -> n.protected <- true
  | None -> ()

let rec node_of_tree b ~protect = function
  | Tree.Const k -> intern b (Kconst k)
  | Tree.Ref r -> intern b (Kref (r, version b r.Mref.base))
  | Tree.Unop (op, a) ->
    let ia = node_of_tree b ~protect:(protect || op = Op.Sat) a in
    let id = intern b (Kunop (op, ia)) in
    if protect then mark_protected b id;
    id
  | Tree.Binop (op, a, c) ->
    let ia = node_of_tree b ~protect a in
    let ic = node_of_tree b ~protect c in
    let id = intern b (Kbinop (op, ia, ic)) in
    if protect then mark_protected b id;
    id

let of_block stmts =
  let b =
    {
      table = Hashtbl.create 64;
      acc = [];
      next = 0;
      versions = Hashtbl.create 8;
    }
  in
  let roots =
    List.map
      (fun (s : Prog.stmt) ->
        let id = node_of_tree b ~protect:false s.src in
        bump b s.dst.Mref.base;
        (s, id))
      stmts
  in
  let nodes =
    Array.make (max b.next 1)
      { id = 0; key = Kconst 0; uses = 0; protected = false }
  in
  List.iter (fun n -> nodes.(n.id) <- n) b.acc;
  (* Count uses: one per parent edge plus one per root. *)
  Array.iter
    (fun n ->
      match n.key with
      | Kconst _ | Kref _ -> ()
      | Kunop (_, a) -> nodes.(a).uses <- nodes.(a).uses + 1
      | Kbinop (_, a, c) ->
        nodes.(a).uses <- nodes.(a).uses + 1;
        nodes.(c).uses <- nodes.(c).uses + 1)
    nodes;
  List.iter (fun (_, id) -> nodes.(id).uses <- nodes.(id).uses + 1) roots;
  { nodes; roots }

let is_leaf n = match n.key with Kconst _ | Kref _ -> true | _ -> false

let shared_count g =
  if g.roots = [] then 0
  else
    Array.fold_left
      (fun acc n -> if (not (is_leaf n)) && n.uses > 1 then acc + 1 else acc)
      0 g.nodes

(* Decomposition: walk roots in order; materialize shared interior nodes into
   temporaries the first time they are needed. *)
let to_stmts g =
  let temp_of : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let fresh = ref 0 in
  let out = ref [] in
  let decls = ref [] in
  let emit s = out := s :: !out in
  let rec tree_of id =
    let n = g.nodes.(id) in
    match Hashtbl.find_opt temp_of id with
    | Some name -> Tree.Ref (Mref.scalar name)
    | None ->
      let body =
        match n.key with
        | Kconst k -> Tree.Const k
        | Kref (r, _) -> Tree.Ref r
        | Kunop (op, a) -> Tree.Unop (op, tree_of a)
        | Kbinop (op, a, c) ->
          let ta = tree_of a in
          let tc = tree_of c in
          Tree.Binop (op, ta, tc)
      in
      if (not (is_leaf n)) && n.uses > 1 && not n.protected then begin
        let name = "$cse" ^ string_of_int !fresh in
        incr fresh;
        decls := Prog.scalar_decl name :: !decls;
        emit { Prog.dst = Mref.scalar name; src = body };
        Hashtbl.replace temp_of id name;
        Tree.Ref (Mref.scalar name)
      end
      else body
  in
  List.iter
    (fun ((s : Prog.stmt), id) ->
      let src = tree_of id in
      emit { Prog.dst = s.dst; src })
    g.roots;
  (List.rev !out, List.rev !decls)

let decompose stmts = to_stmts (of_block stmts)
