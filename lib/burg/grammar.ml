type t = { name : string; rules : Rule.t list; start : string }

let produced rules =
  List.sort_uniq String.compare (List.map (fun (r : Rule.t) -> r.lhs) rules)

let check ~start rules =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let names = List.map (fun (r : Rule.t) -> r.name) rules in
  let dup =
    let seen = Hashtbl.create 16 in
    List.find_opt
      (fun n ->
        if Hashtbl.mem seen n then true
        else (
          Hashtbl.add seen n ();
          false))
      names
  in
  match dup with
  | Some n -> err "duplicate rule name %s" n
  | None ->
    let prod = produced rules in
    let missing =
      List.concat_map
        (fun (r : Rule.t) ->
          List.filter
            (fun nt -> not (List.mem nt prod))
            (Pattern.nonterms r.pattern))
        rules
    in
    if missing <> [] then
      err "nonterminal %s is used but never produced" (List.hd missing)
    else if not (List.mem start prod) then
      err "start nonterminal %s is never produced" start
    else begin
      (* Zero-cost chain cycles would make min-cost derivations ill-defined:
         detect a cycle among zero-cost chain rules by DFS. *)
      let zero_chain =
        List.filter_map
          (fun (r : Rule.t) ->
            match r.pattern with
            | Pattern.Nonterm src when r.cost = 0 -> Some (src, r.lhs)
            | _ -> None)
          rules
      in
      let rec reachable from visited =
        if List.mem from visited then visited
        else
          let visited = from :: visited in
          List.fold_left
            (fun vis (src, dst) ->
              if src = from then reachable dst vis else vis)
            visited zero_chain
      in
      let cyclic =
        List.exists
          (fun (src, dst) -> List.mem src (reachable dst []))
          zero_chain
      in
      if cyclic then err "zero-cost chain-rule cycle" else Ok ()
    end

let make ~name ~start rules =
  match check ~start rules with
  | Ok () -> { name; rules; start }
  | Error msg -> invalid_arg (Printf.sprintf "Grammar.make (%s): %s" name msg)

let nonterms g = produced g.rules

let pp ppf g =
  Format.fprintf ppf "@[<v>grammar %s (start %s)@," g.name g.start;
  List.iter (fun r -> Format.fprintf ppf "  %s@," (Rule.to_string r)) g.rules;
  Format.fprintf ppf "@]"
