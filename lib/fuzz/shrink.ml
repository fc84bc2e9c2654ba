(* Greedy structural shrinking.

   Every simplification step strictly decreases a well-founded measure
   (item count, tree size, constant magnitude, trip count, declaration
   size, or the number of nonzero input cells), so the greedy fixpoint in
   [minimize] terminates.  Variants that no longer validate are filtered
   out there, which lets the enumeration stay simple (e.g. halving an
   array declaration may orphan an access; validation rejects it). *)

(* ---- expression simplifications ----------------------------------------- *)

let rec tree_variants (t : Ir.Tree.t) : Ir.Tree.t list =
  match t with
  | Ir.Tree.Const 0 -> []
  | Ir.Tree.Const k ->
    Ir.Tree.Const 0 :: (if k / 2 <> 0 then [ Ir.Tree.Const (k / 2) ] else [])
  | Ir.Tree.Ref r -> (
    match r.Ir.Mref.index with
    | Ir.Mref.Induct { offset; _ } ->
      (* freeze the stream at its first element *)
      [
        Ir.Tree.Ref { r with Ir.Mref.index = Ir.Mref.Elem offset };
        Ir.Tree.Const 0;
      ]
    | Ir.Mref.Direct | Ir.Mref.Elem _ -> [ Ir.Tree.Const 0 ])
  | Ir.Tree.Unop (op, a) ->
    (a :: Ir.Tree.Const 0
    :: List.map (fun a' -> Ir.Tree.Unop (op, a')) (tree_variants a))
  | Ir.Tree.Binop (op, a, b) ->
    (a :: b :: Ir.Tree.Const 0
    :: List.map (fun a' -> Ir.Tree.Binop (op, a', b)) (tree_variants a))
    @ List.map (fun b' -> Ir.Tree.Binop (op, a, b')) (tree_variants b)

(* ---- item simplifications ------------------------------------------------- *)

(* Rewrite every access through [ivar] to the element it touches on the
   first iteration, turning a loop body into straight-line code. *)
let subst_ivar ivar item =
  let fix_ref (r : Ir.Mref.t) =
    match r.Ir.Mref.index with
    | Ir.Mref.Induct { ivar = iv; offset; _ } when iv = ivar ->
      { r with Ir.Mref.index = Ir.Mref.Elem offset }
    | _ -> r
  in
  let rec go = function
    | Ir.Prog.Stmt { dst; src } ->
      Ir.Prog.Stmt { dst = fix_ref dst; src = Ir.Tree.map_refs fix_ref src }
    | Ir.Prog.Loop l -> Ir.Prog.Loop { l with body = List.map go l.body }
  in
  go item

(* Each replacement is the list of items standing in for the original one
   (a loop inlines to its whole body). *)
let rec replacements (it : Ir.Prog.item) : Ir.Prog.item list list =
  match it with
  | Ir.Prog.Stmt { dst; src } ->
    List.map (fun src' -> [ Ir.Prog.assign dst src' ]) (tree_variants src)
  | Ir.Prog.Loop { ivar; count; body } ->
    [ List.map (subst_ivar ivar) body ]
    @ (if count > 1 then
         [ Ir.Prog.Loop { ivar; count = 1; body } ]
         :: (if count / 2 > 1 then
               [ [ Ir.Prog.Loop { ivar; count = count / 2; body } ] ]
             else [])
       else [])
    @ List.map
        (fun body' -> [ Ir.Prog.Loop { ivar; count; body = body' } ])
        (items_variants body)

and items_variants (items : Ir.Prog.item list) : Ir.Prog.item list list =
  let rec go prefix = function
    | [] -> []
    | it :: rest ->
      let drop = List.rev_append prefix rest in
      let repl =
        List.map
          (fun stand_in -> List.rev_append prefix (stand_in @ rest))
          (replacements it)
      in
      (drop :: repl) @ go (it :: prefix) rest
  in
  go [] items

(* All one-step structural simplifications of a program, most aggressive
   first.  Variants are not guaranteed to validate; [minimize] filters. *)
let prog_variants (p : Ir.Prog.t) =
  List.map (fun body -> { p with Ir.Prog.body }) (items_variants p.Ir.Prog.body)

(* ---- declaration and input simplifications ----------------------------------- *)

let used_bases (p : Ir.Prog.t) =
  List.concat_map
    (fun (s : Ir.Prog.stmt) ->
      s.Ir.Prog.dst.Ir.Mref.base
      :: List.map (fun (r : Ir.Mref.t) -> r.Ir.Mref.base)
           (Ir.Tree.refs s.Ir.Prog.src))
    (Ir.Prog.stmts p)

let with_prog (case : Gen.case) prog = { case with Gen.prog }

let drop_unused_decls (case : Gen.case) =
  let used = used_bases case.Gen.prog in
  let keep (d : Ir.Prog.decl) = List.mem d.Ir.Prog.name used in
  let decls = List.filter keep case.Gen.prog.Ir.Prog.decls in
  if List.length decls = List.length case.Gen.prog.Ir.Prog.decls then []
  else
    [
      {
        case with
        Gen.prog = { case.Gen.prog with Ir.Prog.decls };
        inputs =
          List.filter
            (fun (n, _) ->
              List.exists (fun (d : Ir.Prog.decl) -> d.Ir.Prog.name = n) decls)
            case.Gen.inputs;
      };
    ]

let shrink_decl_sizes (case : Gen.case) =
  List.filter_map
    (fun (d : Ir.Prog.decl) ->
      if d.Ir.Prog.size <= 1 then None
      else
        let size = d.Ir.Prog.size / 2 in
        let decls =
          List.map
            (fun (d' : Ir.Prog.decl) ->
              if d'.Ir.Prog.name = d.Ir.Prog.name then
                { d' with Ir.Prog.size }
              else d')
            case.Gen.prog.Ir.Prog.decls
        in
        let inputs =
          List.map
            (fun (n, vs) ->
              if n = d.Ir.Prog.name then (n, Array.sub vs 0 size) else (n, vs))
            case.Gen.inputs
        in
        Some
          { case with Gen.prog = { case.Gen.prog with Ir.Prog.decls }; inputs })
    case.Gen.prog.Ir.Prog.decls

let input_variants (case : Gen.case) =
  let set name i v =
    {
      case with
      Gen.inputs =
        List.map
          (fun (n, vs) ->
            if n = name then begin
              let vs' = Array.copy vs in
              vs'.(i) <- v;
              (n, vs')
            end
            else (n, vs))
          case.Gen.inputs;
    }
  in
  let zero_all =
    List.filter_map
      (fun (n, vs) ->
        if Array.exists (fun v -> v <> 0) vs then
          Some { case with Gen.inputs = List.map (fun (n', vs') ->
                     if n' = n then (n', Array.map (fun _ -> 0) vs') else (n', vs'))
                     case.Gen.inputs }
        else None)
      case.Gen.inputs
  in
  let per_cell f =
    List.concat_map
      (fun (n, vs) ->
        List.filter_map Fun.id
          (List.init (Array.length vs) (fun i ->
               match f vs.(i) with
               | Some v -> Some (set n i v)
               | None -> None)))
      case.Gen.inputs
  in
  zero_all
  @ per_cell (fun v -> if v <> 0 then Some 0 else None)
  @ per_cell (fun v -> if v / 2 <> 0 then Some (v / 2) else None)

let case_variants (case : Gen.case) =
  List.map (with_prog case) (prog_variants case.Gen.prog)
  @ drop_unused_decls case @ shrink_decl_sizes case @ input_variants case

(* ---- the greedy fixpoint --------------------------------------------------- *)

let minimize ~still_fails (case : Gen.case) =
  let viable c =
    match Ir.Prog.validate c.Gen.prog with
    | Ok () -> still_fails c
    | Error _ -> false
  in
  let rec go case =
    match List.find_opt viable (case_variants case) with
    | Some smaller -> go smaller
    | None -> case
  in
  go case
