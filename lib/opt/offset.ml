type result = { order : string list; declared_cost : int; soa_cost : int }

let cost ~order accesses =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  let adjacent a b =
    match (Hashtbl.find_opt pos a, Hashtbl.find_opt pos b) with
    | Some pa, Some pb -> abs (pa - pb) <= 1
    | _ -> false
  in
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      go (if adjacent a b then acc else acc + 1) rest
    | [ _ ] | [] -> acc
  in
  go 0 accesses

(* Adjacent-access pair weights of a sequence, heaviest first. *)
let access_graph accesses =
  let weights = Hashtbl.create 32 in
  let rec go = function
    | a :: (b :: _ as rest) ->
      if a <> b then begin
        let key = if a < b then (a, b) else (b, a) in
        Hashtbl.replace weights key
          (Option.value ~default:0 (Hashtbl.find_opt weights key) + 1)
      end;
      go rest
    | [ _ ] | [] -> ()
  in
  go accesses;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []
  |> List.sort (fun (ka, wa) (kb, wb) ->
         match compare wb wa with 0 -> compare ka kb | c -> c)

(* Union-find for cycle detection during path assembly. *)
let rec find parent v =
  match Hashtbl.find_opt parent v with
  | Some p when p <> v ->
    let root = find parent p in
    Hashtbl.replace parent v root;
    root
  | _ -> v

let solve ~vars accesses =
  let edges = access_graph accesses in
  let degree = Hashtbl.create 16 in
  let parent = Hashtbl.create 16 in
  let deg v = Option.value ~default:0 (Hashtbl.find_opt degree v) in
  let chosen =
    List.filter
      (fun ((a, b), _) ->
        let ra = find parent a and rb = find parent b in
        if deg a < 2 && deg b < 2 && ra <> rb then begin
          Hashtbl.replace degree a (deg a + 1);
          Hashtbl.replace degree b (deg b + 1);
          Hashtbl.replace parent ra rb;
          true
        end
        else false)
      edges
  in
  (* Assemble paths from the chosen edges. *)
  let adj = Hashtbl.create 16 in
  let add a b =
    Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a))
  in
  List.iter
    (fun ((a, b), _) ->
      add a b;
      add b a)
    chosen;
  let visited = Hashtbl.create 16 in
  let walk start =
    let rec go v acc =
      Hashtbl.replace visited v ();
      let next =
        List.find_opt
          (fun u -> not (Hashtbl.mem visited u))
          (Option.value ~default:[] (Hashtbl.find_opt adj v))
      in
      match next with None -> List.rev (v :: acc) | Some u -> go u (v :: acc)
    in
    go start []
  in
  (* Path endpoints have degree <= 1; walk from them first, then leftovers. *)
  let paths =
    List.concat_map
      (fun v -> if Hashtbl.mem visited v || deg v > 1 then [] else walk v)
      vars
  in
  let leftovers =
    List.filter_map
      (fun v ->
        if Hashtbl.mem visited v then None
        else begin
          Hashtbl.replace visited v ();
          Some v
        end)
      vars
  in
  let order = paths @ leftovers in
  (* The greedy path cover is a heuristic; never return a layout worse
     than the declaration order. *)
  let declared_cost = cost ~order:vars accesses in
  let soa_cost = cost ~order accesses in
  if soa_cost <= declared_cost then { order; declared_cost; soa_cost }
  else { order = vars; declared_cost; soa_cost = declared_cost }

let access_sequence (prog : Ir.Prog.t) =
  let out = ref [] in
  let note (r : Ir.Mref.t) =
    match r.index with
    | Ir.Mref.Direct -> out := r.base :: !out
    | Ir.Mref.Elem _ | Ir.Mref.Induct _ -> ()
  in
  let rec scan_item = function
    | Ir.Prog.Stmt { dst; src } ->
      List.iter note (Ir.Tree.refs src);
      note dst
    | Ir.Prog.Loop { body; _ } -> List.iter scan_item body
  in
  List.iter scan_item prog.body;
  List.rev !out
