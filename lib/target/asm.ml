(* Structured assembly: straight-line instructions, compacted parallel
   words, and counted hardware loops.  Keeping loops structural (instead of
   branches and labels) is what lets the timing analysis be exact. *)

type item =
  | Op of Instr.t
  | Par of Instr.t list  (** one instruction word, parallel slots *)
  | Loop of loop

and loop = { ivar : string option; count : int; body : item list }

type t = { name : string; items : item list }

let make ~name items = { name; items }

let rec item_words = function
  | Op i -> i.Instr.words
  | Par _ -> 1
  | Loop l -> List.fold_left (fun acc it -> acc + item_words it) 0 l.body

let words t = List.fold_left (fun acc it -> acc + item_words it) 0 t.items

let rec item_instr_count = function
  | Op _ -> 1
  | Par is -> List.length is
  | Loop l ->
    List.fold_left (fun acc it -> acc + item_instr_count it) 0 l.body

let instr_count t =
  List.fold_left (fun acc it -> acc + item_instr_count it) 0 t.items

(* Every instruction with its per-run execution count (loop bodies count
   once per iteration). *)
let flatten_counts t =
  let acc = ref [] in
  let rec go mult = function
    | Op i -> acc := (i, mult) :: !acc
    | Par is -> List.iter (fun i -> acc := (i, mult) :: !acc) is
    | Loop l -> List.iter (go (mult * l.count)) l.body
  in
  List.iter (go 1) t.items;
  List.rev !acc

(* Every instruction of the items, in program order (loop bodies once). *)
let iter_items f items =
  let rec go = function
    | Op i -> f i
    | Par is -> List.iter f is
    | Loop l -> List.iter go l.body
  in
  List.iter go items

let iter f t = iter_items f t.items

(* Calls [f k i] on every instruction [i] with its position [k], counted
   from 0 in program order (loop bodies once), and returns each loop's
   span [(first, last)] of positions, the loop that closes last first; an
   empty loop spans [(k, k - 1)]. *)
let loop_spans f items =
  let pos = ref 0 and spans = ref [] in
  let step i =
    f !pos i;
    incr pos
  in
  let rec go = function
    | Op i -> step i
    | Par is -> List.iter step is
    | Loop l ->
      let first = !pos in
      List.iter go l.body;
      spans := (first, !pos - 1) :: !spans
  in
  List.iter go items;
  !spans

(* Rewrite every maximal run of [Op] items with [f], in program order.
   [Par] words and loops are barriers; loop bodies are rewritten the same
   way. [f] never sees an empty run. *)
let rec map_runs f items =
  let flush run acc =
    if run = [] then acc else List.rev_append (f (List.rev run)) acc
  in
  let rec go run acc = function
    | [] -> List.rev (flush run acc)
    | Op i :: rest -> go (i :: run) acc rest
    | (Par _ as p) :: rest -> go [] (p :: flush run acc) rest
    | Loop l :: rest ->
      let acc = flush run acc in
      go [] (Loop { l with body = map_runs f l.body } :: acc) rest
  in
  go [] [] items

let map f t =
  let rec go = function
    | Op i -> Op (f i)
    | Par is -> Par (List.map f is)
    | Loop l -> Loop { l with body = List.map go l.body }
  in
  { t with items = List.map go t.items }

let to_string t =
  let b = Buffer.create 1024 in
  let rec go indent = function
    | Op i ->
      Buffer.add_string b indent;
      Instr.add_to_buffer b i;
      Buffer.add_char b '\n'
    | Par is ->
      Buffer.add_string b indent;
      List.iteri
        (fun k i ->
          if k > 0 then Buffer.add_string b "  ||  ";
          Instr.add_to_buffer b i)
        is;
      Buffer.add_char b '\n'
    | Loop l ->
      Buffer.add_string b indent;
      Buffer.add_string b "; loop x";
      Ir.Decimal.add_int b l.count;
      Buffer.add_char b '\n';
      List.iter (go (indent ^ "  ")) l.body;
      Buffer.add_string b indent;
      Buffer.add_string b "; end loop\n"
  in
  Buffer.add_string b "; ";
  Buffer.add_string b t.name;
  Buffer.add_char b '\n';
  List.iter (go "") t.items;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)
