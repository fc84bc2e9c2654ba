let pair_weights (prog : Ir.Prog.t) =
  let weights = Hashtbl.create 32 in
  let note mult a b =
    if a <> b then begin
      let key = if a < b then (a, b) else (b, a) in
      Hashtbl.replace weights key
        (Option.value ~default:0 (Hashtbl.find_opt weights key) + mult)
    end
  in
  (* Notes the pairs below [t] and returns its leftmost referenced
     variable, so each node is visited once. *)
  let rec scan_tree mult t =
    match t with
    | Ir.Tree.Const _ -> None
    | Ir.Tree.Ref r -> Some r.Ir.Mref.base
    | Ir.Tree.Unop (_, a) -> scan_tree mult a
    | Ir.Tree.Binop (_, a, b) ->
      let va = scan_tree mult a in
      let vb = scan_tree mult b in
      (match (va, vb) with Some x, Some y -> note mult x y | _ -> ());
      if va = None then vb else va
  in
  let rec scan_item mult = function
    | Ir.Prog.Stmt { src; _ } -> ignore (scan_tree mult src)
    | Ir.Prog.Loop { count; body; _ } ->
      List.iter (scan_item (mult * count)) body
  in
  List.iter (scan_item 1) prog.body;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []
  |> List.sort (fun (ka, wa) (kb, wb) ->
         match compare wb wa with 0 -> compare ka kb | c -> c)

let assign ~banks:(bank_a, bank_b) ~weights ~vars =
  (* Total weight per variable, for placement order. *)
  let total = Hashtbl.create 32 in
  let bump v w =
    Hashtbl.replace total v
      (Option.value ~default:0 (Hashtbl.find_opt total v) + w)
  in
  List.iter
    (fun ((a, b), w) ->
      bump a w;
      bump b w)
    weights;
  let order =
    List.sort
      (fun a b ->
        let wa = Option.value ~default:0 (Hashtbl.find_opt total a) in
        let wb = Option.value ~default:0 (Hashtbl.find_opt total b) in
        match compare wb wa with 0 -> compare a b | c -> c)
      vars
  in
  let placement = Hashtbl.create 32 in
  let same_bank_weight v bank =
    List.fold_left
      (fun acc ((a, b), w) ->
        let other = if a = v then Some b else if b = v then Some a else None in
        match other with
        | Some o when Hashtbl.find_opt placement o = Some bank -> acc + w
        | Some _ | None -> acc)
      0 weights
  in
  List.iter
    (fun v ->
      let wa = same_bank_weight v bank_a in
      let wb = same_bank_weight v bank_b in
      Hashtbl.replace placement v (if wa <= wb then bank_a else bank_b))
    order;
  fun v -> Option.value ~default:bank_a (Hashtbl.find_opt placement v)

let cut_value ~bank_of weights =
  List.fold_left
    (fun (split, total) ((a, b), w) ->
      let split = if bank_of a <> bank_of b then split + w else split in
      (split, total + w))
    (0, 0) weights
