(** Plan and expression evaluation.

    Two executors share this module:

    - the {b interpreted} executor (the original reference semantics):
      rows are association lists from column names to values; every
      column reference re-resolves its name per row with [List.assoc].
      It remains the executable specification — differential tests and
      the [execscale] bench run it as the baseline — and its expression
      evaluator still serves {!Publish} during materialisation;
    - the {b compiled} executor (the default behind {!run}): a plan-open
      column-resolution pass assigns every operator output a fixed
      {!Layout.t} (name → integer slot, qualified aliases resolved
      statically), expressions compile to closures over [Value.t array]
      rows, and operators exchange batches of ~{!default_batch_size}
      rows.  Unresolvable references fail at plan-open time with the
      available columns listed, instead of per-row [Exec_error]s.

    The compiled executor publishes XML through {b fused emitters}
    ([cemit]): a constructor nested in a constructor, and every XMLAgg
    member, pushes its events straight into the consumer's sink, so only
    the outermost constructor of an expression becomes a value — one
    [Value.Xml_stream], or one tree in DOM mode.  Start tags are built at
    plan-open time.  [Sort] and XMLAgg [ORDER BY] share one ordering
    helper ([order_rows]): an O(n) check returns input that already
    arrives in key order untouched (counted as [presorted] in {!Stats}),
    anything else gets a stable index sort over keys computed once.

    Each scan binds both the bare column name and the [alias.column]
    qualified form, so correlated subqueries can reference outer tables
    the way paper Table 7 does ([DEPTNO = DEPT.DEPTNO]); correlation
    bindings ride as the physical tail of each row.

    Both executors accept an optional {!Stats.t} collector; when present
    every operator records rows produced, loops, B-tree probe counts,
    skipped sorts and inclusive wall time (EXPLAIN ANALYZE), and the two
    executors produce identical per-operator row and presorted counts. *)

module X = Xdb_xml.Types
module E = Xdb_xml.Events
open Algebra

type row = (string * Value.t) list

exception Exec_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt

(** Execution context: database plus optional instrumentation.
    [xml_streaming] selects the streamed XMLType representation for
    constructor results (events on demand instead of node trees). *)
type ctx = { db : Database.t; stats : Stats.t option; xml_streaming : bool }

let lookup (env : row) alias name =
  match alias with
  | Some a -> (
      match List.assoc_opt (a ^ "." ^ name) env with
      | Some v -> v
      | None -> err "unknown column %s.%s" a name)
  | None -> (
      match List.assoc_opt name env with
      | Some v -> v
      | None -> err "unknown column %s" name)

let bool_of_value = function
  | Value.Null -> false
  | Value.Int i -> i <> 0
  (* XPath/SQL boolean semantics: NaN is false (NaN <> 0.0 holds in OCaml,
     so the naive test would make NaN truthy) *)
  | Value.Float f -> f <> 0.0 && not (Float.is_nan f)
  | Value.Str s -> s <> ""
  | Value.Xml ns -> ns <> []
  | Value.Xml_stream produce ->
      (* probe for a first event — the streamed image of [ns <> []] *)
      let exception Non_empty in
      (try
         produce { E.emit = (fun _ -> raise Non_empty); finish = (fun () -> ()) };
         false
       with Non_empty -> true)

(* scalar value → XML content node list (SQL/XML: scalars become text) *)
let xml_content = function
  | Value.Null -> []
  | Value.Xml nodes -> List.map X.deep_copy nodes
  | Value.Xml_stream produce -> Value.stream_to_nodes produce
  | v -> [ X.make (X.Text (Value.to_string v)) ]

(* value → XML content events (the streamed image of [xml_content]) *)
let emit_content sink = function
  | Value.Null -> ()
  | Value.Xml nodes -> List.iter (E.emit_tree sink) nodes
  | Value.Xml_stream produce -> produce sink
  | v -> sink.E.emit (E.Text (Value.to_string v))

(* Constructor results: every SQL/XML constructor describes its output as
   an event producer; streaming mode returns the producer itself, DOM mode
   drains it through the tree builder — one construction path, two
   representations. *)
let xml_value ~streaming produce =
  if streaming then Value.Xml_stream produce else Value.Xml (Value.stream_to_nodes produce)

(* XPath 1.0 round(): round(-0.2) and round(-0.5) are negative zero;
   NaN, ±∞, ±0 and integers pass through unchanged *)
let xpath_round f =
  if Float.is_nan f || Float.is_integer f then f
  else if f >= -0.5 && f < 0.0 then -0.0
  else Float.floor (f +. 0.5)

(* ------------------------------------------------------------------ *)
(* Hash-join key hashing (shared by both executors)                    *)
(* ------------------------------------------------------------------ *)

(* Bucket key for a tuple of join-key values.  Values that compare equal
   under {!Value.compare_sql} must land in the same bucket: numerics are
   normalised through their float image (SQL equality compares Int/Float
   mixtures as floats), strings keep a distinct tag.  Bucket candidates
   are re-verified with {!Value.equal_sql}, so a hash collision can never
   produce a false match — only the converse (equal values in different
   buckets) would be a bug. *)
let hash_key_string (vs : Value.t array) : string =
  let b = Buffer.create 32 in
  Array.iter
    (fun v ->
      (match v with
      | Value.Int _ | Value.Float _ ->
          Buffer.add_char b 'n';
          Buffer.add_string b (Value.float_to_string (Value.to_float v))
      | Value.Str s ->
          Buffer.add_char b 's';
          Buffer.add_string b s
      | v ->
          Buffer.add_char b 'x';
          Buffer.add_string b (Value.to_string v));
      Buffer.add_char b '\x00')
    vs;
  Buffer.contents b

let hash_keys_equal (a : Value.t array) (b : Value.t array) : bool =
  let n = Array.length a in
  let rec go i = i >= n || (Value.equal_sql a.(i) b.(i) && go (i + 1)) in
  go 0

(* Static own-binding names of a plan's rows, without the correlation
   tail — what the interpreted LEFT OUTER hash join null-pads when a
   probe row has no match (mirrors the compiled executor's own-slot
   prefix of the build layout). *)
let rec own_binding_names db (p : plan) : string list =
  match p with
  | Seq_scan { table; alias } | Index_scan { table; alias; _ } ->
      Array.to_list (Database.table db table).Table.columns
      |> List.concat_map (fun c -> [ c.Table.col_name; alias ^ "." ^ c.Table.col_name ])
  | Filter (_, i) | Sort (_, i) | Limit (_, i) -> own_binding_names db i
  | Project (fields, _) -> List.map snd fields
  | Nested_loop { outer; inner; _ } -> own_binding_names db inner @ own_binding_names db outer
  | Hash_join { outer; inner; kind = Inner | Left_outer; _ } ->
      own_binding_names db inner @ own_binding_names db outer
  | Hash_join { outer; kind = Semi | Anti; _ } -> own_binding_names db outer
  | Aggregate { group_by; aggs; _ } -> List.map snd group_by @ List.map snd aggs
  | Values { cols; _ } -> cols

(* Interpreted ORDER BY: decorated rows [(keys with directions, row)]
   compared key by key *)
let sort_key_cmp (ka, _) (kb, _) =
  let rec go = function
    | [] -> 0
    | ((va, d), (vb, _)) :: rest -> (
        let c = Value.compare_key va vb in
        let c = match d with Asc -> c | Desc -> -c in
        match c with 0 -> go rest | c -> c)
  in
  go (List.combine ka kb)

(* ties count as in order: a stable sort would leave such input as is *)
let rec in_order cmp = function
  | a :: (b :: _ as rest) -> cmp a b <= 0 && in_order cmp rest
  | _ -> true

(* an open of a Sort (or of an Aggregate with an ordered XMLAgg) whose
   input was already in key order; the check runs only when counted *)
let count_presorted ctx p =
  match ctx.stats with
  | None -> ()
  | Some st -> (
      match Stats.find st p with
      | Some s -> s.Stats.presorted <- s.Stats.presorted + 1
      | None -> ())

let rec eval_expr_in ctx (env : row) (e : expr) : Value.t =
  match e with
  | Const v -> v
  | Col (alias, name) -> lookup env alias name
  | Not e -> Value.Int (if bool_of_value (eval_expr_in ctx env e) then 0 else 1)
  | Is_null e -> Value.Int (if Value.is_null (eval_expr_in ctx env e) then 1 else 0)
  | Binop (op, a, b) -> eval_binop ctx env op a b
  | Fn (f, args) -> eval_fn ctx env f args
  | Case (whens, els) -> (
      let rec go = function
        | [] -> ( match els with Some e -> eval_expr_in ctx env e | None -> Value.Null)
        | (c, r) :: rest ->
            if bool_of_value (eval_expr_in ctx env c) then eval_expr_in ctx env r else go rest
      in
      go whens)
  | Xml_element (name, attrs, kids) ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          sink.E.emit (E.Start_element (X.qname name));
          List.iter
            (fun (an, ae) ->
              match eval_expr_in ctx env ae with
              | Value.Null -> ()
              | v -> sink.E.emit (E.Attr (X.qname an, Value.to_string v)))
            attrs;
          List.iter (fun ke -> emit_content sink (eval_expr_in ctx env ke)) kids;
          sink.E.emit E.End_element)
  | Xml_forest fields ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          List.iter
            (fun (n, fe) ->
              match eval_expr_in ctx env fe with
              | Value.Null -> ()
              | v ->
                  sink.E.emit (E.Start_element (X.qname n));
                  emit_content sink v;
                  sink.E.emit E.End_element)
            fields)
  | Xml_concat es ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          List.iter (fun e -> emit_content sink (eval_expr_in ctx env e)) es)
  | Xml_text e ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          match eval_expr_in ctx env e with
          | Value.Null -> ()
          | v -> sink.E.emit (E.Text (Value.to_string v)))
  | Xml_comment e ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          sink.E.emit (E.Comment (Value.to_string (eval_expr_in ctx env e))))
  | Xml_pi (t, e) ->
      xml_value ~streaming:ctx.xml_streaming (fun sink ->
          sink.E.emit (E.Pi (t, Value.to_string (eval_expr_in ctx env e))))
  | Scalar_subquery p -> (
      match run_in ctx ~outer:env p with
      | [] -> Value.Null
      | r :: _ -> ( match r with [] -> Value.Null | (_, v) :: _ -> v))
  | Exists p -> Value.Int (if run_in ctx ~outer:env p = [] then 0 else 1)

and eval_binop ctx env op a b =
  match op with
  | And ->
      Value.Int
        (if bool_of_value (eval_expr_in ctx env a) && bool_of_value (eval_expr_in ctx env b)
         then 1
         else 0)
  | Or ->
      Value.Int
        (if bool_of_value (eval_expr_in ctx env a) || bool_of_value (eval_expr_in ctx env b)
         then 1
         else 0)
  | Concat ->
      Value.Str
        (Value.to_string (eval_expr_in ctx env a) ^ Value.to_string (eval_expr_in ctx env b))
  | Fdiv ->
      let va = eval_expr_in ctx env a and vb = eval_expr_in ctx env b in
      (match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | _ -> Value.Float (Value.to_float va /. Value.to_float vb))
  | Add | Sub | Mul | Div | Mod -> (
      let va = eval_expr_in ctx env a and vb = eval_expr_in ctx env b in
      match (va, vb) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Int x, Value.Int y -> (
          match op with
          | Add -> Value.Int (x + y)
          | Sub -> Value.Int (x - y)
          | Mul -> Value.Int (x * y)
          | Div -> if y = 0 then err "division by zero" else Value.Int (x / y)
          | Mod -> if y = 0 then err "division by zero" else Value.Int (x mod y)
          | _ -> assert false)
      | _ ->
          let x = Value.to_float va and y = Value.to_float vb in
          let f =
            match op with
            | Add -> x +. y
            | Sub -> x -. y
            | Mul -> x *. y
            | Div -> x /. y
            | Mod -> Float.rem x y
            | _ -> assert false
          in
          Value.Float f)
  | Eq | Neq | Lt | Leq | Gt | Geq -> (
      let va = eval_expr_in ctx env a and vb = eval_expr_in ctx env b in
      match Value.compare_sql va vb with
      | None -> Value.Null
      | Some c ->
          let b =
            match op with
            | Eq -> c = 0
            | Neq -> c <> 0
            | Lt -> c < 0
            | Leq -> c <= 0
            | Gt -> c > 0
            | Geq -> c >= 0
            | _ -> assert false
          in
          Value.Int (if b then 1 else 0))

and eval_fn ctx env f args =
  let v i = eval_expr_in ctx env (List.nth args i) in
  match (String.lowercase_ascii f, List.length args) with
  | "concat", _ ->
      Value.Str
        (String.concat "" (List.map (fun a -> Value.to_string (eval_expr_in ctx env a)) args))
  | "upper", 1 -> Value.Str (String.uppercase_ascii (Value.to_string (v 0)))
  | "lower", 1 -> Value.Str (String.lowercase_ascii (Value.to_string (v 0)))
  | "length", 1 -> Value.Int (String.length (Value.to_string (v 0)))
  | "abs", 1 -> (
      match v 0 with
      | Value.Int i -> Value.Int (abs i)
      | x -> Value.Float (Float.abs (Value.to_float x)))
  | "round", 1 -> (
      match v 0 with
      | Value.Null -> Value.Null
      | x -> Value.Float (xpath_round (Value.to_float x)))
  | "floor", 1 -> (
      match v 0 with Value.Null -> Value.Null | x -> Value.Float (Float.floor (Value.to_float x)))
  | "ceiling", 1 -> (
      match v 0 with Value.Null -> Value.Null | x -> Value.Float (Float.ceil (Value.to_float x)))
  | "coalesce", _ ->
      let rec go = function
        | [] -> Value.Null
        | a :: rest -> ( match eval_expr_in ctx env a with Value.Null -> go rest | x -> x)
      in
      go args
  | name, n -> err "unknown scalar function %s/%d" name n

(* ------------------------------------------------------------------ *)
(* Interpreted plan execution (reference semantics)                    *)
(* ------------------------------------------------------------------ *)

and scan_bindings (tbl : Table.t) alias (r : Value.t array) : row =
  let out = ref [] in
  Array.iteri
    (fun i c ->
      let v = r.(i) in
      out := (alias ^ "." ^ c.Table.col_name, v) :: (c.Table.col_name, v) :: !out)
    tbl.Table.columns;
  List.rev !out

(* one operator, uninstrumented *)
and run_node ctx (outer : row) (p : plan) : row list =
  let db = ctx.db in
  match p with
  | Seq_scan { table; alias } ->
      let tbl = Database.table db table in
      Table.fold (fun acc _ r -> (scan_bindings tbl alias r @ outer) :: acc) [] tbl |> List.rev
  | Index_scan { table; alias; index_column; lo; hi } -> (
      let tbl = Database.table db table in
      match Table.find_index tbl index_column with
      | None -> err "no index on %s.%s" table index_column
      | Some idx ->
          let bound = function
            | Unbounded -> Btree.Unbounded
            | Incl e -> Btree.Inclusive (eval_expr_in ctx outer e)
            | Excl e -> Btree.Exclusive (eval_expr_in ctx outer e)
          in
          Btree.range idx.Table.tree ~lo:(bound lo) ~hi:(bound hi)
          |> List.map (fun (_, rid) -> scan_bindings tbl alias (Table.row tbl rid) @ outer))
  | Filter (cond, input) ->
      List.filter (fun r -> bool_of_value (eval_expr_in ctx r cond)) (run_in ctx ~outer input)
  | Project (fields, input) ->
      List.map
        (fun r -> List.map (fun (e, n) -> (n, eval_expr_in ctx r e)) fields @ outer)
        (run_in ctx ~outer input)
  | Nested_loop { outer = op; inner = ip; join_cond } ->
      let outer_rows = run_in ctx ~outer op in
      List.concat_map
        (fun orow ->
          let inner_rows = run_in ctx ~outer:orow ip in
          let joined = List.map (fun irow -> irow @ orow) inner_rows in
          match join_cond with
          | None -> joined
          | Some c -> List.filter (fun r -> bool_of_value (eval_expr_in ctx r c)) joined)
        outer_rows
  | Hash_join { outer = op; inner = ip; keys; kind } ->
      let sop = match ctx.stats with None -> None | Some st -> Stats.find st p in
      let probe_rows = run_in ctx ~outer op in
      let build_input = run_in ctx ~outer ip in
      (* build rows carry the enclosing environment as their tail; strip it
         so joined rows are [iown @ orow], the Nested_loop binding shape *)
      let olen = List.length outer in
      let rec take n l =
        if n <= 0 then [] else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl
      in
      let tbl = Hashtbl.create (max 16 (List.length build_input)) in
      List.iter
        (fun irow ->
          (match sop with Some s -> s.Stats.build_rows <- s.Stats.build_rows + 1 | None -> ());
          let kvs =
            Array.of_list (List.map (fun (_, ik) -> eval_expr_in ctx irow ik) keys)
          in
          (* NULL keys never satisfy SQL equality: leave them out of the table *)
          if not (Array.exists Value.is_null kvs) then (
            let key = hash_key_string kvs in
            let cell =
              match Hashtbl.find_opt tbl key with
              | Some c -> c
              | None ->
                  let c = ref [] in
                  Hashtbl.add tbl key c;
                  c
            in
            cell := (take (List.length irow - olen) irow, kvs) :: !cell))
        build_input;
      Hashtbl.iter (fun _ c -> c := List.rev !c) tbl;
      let probe orow =
        let kvs = Array.of_list (List.map (fun (ok, _) -> eval_expr_in ctx orow ok) keys) in
        if Array.exists Value.is_null kvs then []
        else
          match Hashtbl.find_opt tbl (hash_key_string kvs) with
          | None -> []
          | Some cell ->
              List.filter_map
                (fun (iown, ikvs) -> if hash_keys_equal kvs ikvs then Some iown else None)
                !cell
      in
      let hit n =
        match sop with Some s -> s.Stats.probe_hits <- s.Stats.probe_hits + n | None -> ()
      in
      (match kind with
      | Inner ->
          List.concat_map
            (fun orow ->
              let ms = probe orow in
              hit (List.length ms);
              List.map (fun iown -> iown @ orow) ms)
            probe_rows
      | Left_outer ->
          let null_own = List.map (fun n -> (n, Value.Null)) (own_binding_names db ip) in
          List.concat_map
            (fun orow ->
              match probe orow with
              | [] -> [ null_own @ orow ]
              | ms ->
                  hit (List.length ms);
                  List.map (fun iown -> iown @ orow) ms)
            probe_rows
      | Semi ->
          List.filter
            (fun orow ->
              match probe orow with
              | [] -> false
              | _ :: _ ->
                  hit 1;
                  true)
            probe_rows
      | Anti ->
          List.filter
            (fun orow ->
              match probe orow with
              | [] -> true
              | _ :: _ ->
                  hit 1;
                  false)
            probe_rows)
  | Aggregate { group_by; aggs; input } ->
      let rows = run_in ctx ~outer input in
      (* set when an ordered XMLAgg had to sort its members *)
      let sorted = ref false in
      let out =
        if group_by = [] then [ eval_agg_group ctx outer sorted group_by aggs rows [] ]
        else
          let groups = Hashtbl.create 16 in
          let order = ref [] in
          List.iter
            (fun r ->
              let key =
                List.map (fun (e, _) -> Value.to_string (eval_expr_in ctx r e)) group_by
              in
              match Hashtbl.find_opt groups key with
              | None ->
                  order := key :: !order;
                  Hashtbl.add groups key (ref [ r ])
              | Some cell -> cell := r :: !cell)
            rows;
          List.rev_map
            (fun key ->
              let members = List.rev !(Hashtbl.find groups key) in
              eval_agg_group ctx outer sorted group_by aggs members key)
            !order
      in
      if (not !sorted) && List.exists (function Xml_agg (_, _ :: _), _ -> true | _ -> false) aggs
      then count_presorted ctx p;
      out
  | Sort (keys, input) ->
      let rows = run_in ctx ~outer input in
      let decorated =
        List.map (fun r -> (List.map (fun (k, d) -> (eval_expr_in ctx r k, d)) keys, r)) rows
      in
      if Option.is_some ctx.stats && in_order sort_key_cmp decorated then count_presorted ctx p;
      List.map snd (List.stable_sort sort_key_cmp decorated)
  | Limit (n, input) ->
      let rec take n = function
        | [] -> []
        | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
      in
      take n (run_in ctx ~outer input)
  | Values { cols; rows } -> List.map (fun vs -> List.combine cols vs @ outer) rows

(* operator dispatch: the instrumented path wraps [run_node] with wall-time
   and row accounting; the plain path adds no overhead *)
and run_in ctx ?(outer = []) (p : plan) : row list =
  match ctx.stats with
  | None -> run_node ctx outer p
  | Some st -> (
      match Stats.find st p with
      | None -> run_node ctx outer p
      | Some s ->
          (* snapshot B-tree counters so probe/node-visit deltas can be
             attributed to this index-scan execution *)
          let tree =
            match p with
            | Index_scan { table; index_column; _ } -> (
                match Table.find_index (Database.table ctx.db table) index_column with
                | Some idx -> Some idx.Table.tree
                | None -> None)
            | _ -> None
          in
          let probes0, nodes0 =
            match tree with Some t -> (Btree.probes t, Btree.node_visits t) | None -> (0, 0)
          in
          let t0 = Unix.gettimeofday () in
          let rows = run_node ctx outer p in
          s.Stats.time_ms <- s.Stats.time_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
          s.Stats.loops <- s.Stats.loops + 1;
          let produced = List.length rows in
          s.Stats.rows <- s.Stats.rows + produced;
          (match p with
          | Seq_scan { table; _ } ->
              s.Stats.heap_rows <-
                s.Stats.heap_rows + Table.size (Database.table ctx.db table)
          | Index_scan _ ->
              s.Stats.heap_rows <- s.Stats.heap_rows + produced;
              (match tree with
              | Some t ->
                  s.Stats.btree_probes <- s.Stats.btree_probes + (Btree.probes t - probes0);
                  s.Stats.btree_nodes <- s.Stats.btree_nodes + (Btree.node_visits t - nodes0)
              | None -> ())
          | _ -> ());
          rows)

and eval_agg_group ctx outer sorted group_by aggs members key =
  (* group columns: re-evaluate on a member row to keep value types; fall
     back to the string key for an (impossible in practice) empty group *)
  let group_cols =
    match members with
    | m :: _ -> List.map (fun (e, n) -> (n, eval_expr_in ctx m e)) group_by
    | [] -> List.map2 (fun (_, n) k -> (n, Value.Str k)) group_by key
  in
  let agg_cols =
    List.map
      (fun (a, n) ->
        let value =
          match a with
          | Count_star -> Value.Int (List.length members)
          | Count e ->
              Value.Int
                (List.length
                   (List.filter (fun r -> not (Value.is_null (eval_expr_in ctx r e))) members))
          | Sum e ->
              let vs =
                List.filter_map
                  (fun r ->
                    match eval_expr_in ctx r e with Value.Null -> None | v -> Some v)
                  members
              in
              if vs = [] then Value.Null
              else if List.for_all (function Value.Int _ -> true | _ -> false) vs then
                Value.Int (List.fold_left (fun acc v -> acc + Value.to_int v) 0 vs)
              else Value.Float (List.fold_left (fun acc v -> acc +. Value.to_float v) 0.0 vs)
          | Min e ->
              List.fold_left
                (fun acc r ->
                  let v = eval_expr_in ctx r e in
                  match (acc, v) with
                  | _, Value.Null -> acc
                  | Value.Null, v -> v
                  | acc, v -> if Value.compare_key v acc < 0 then v else acc)
                Value.Null members
          | Max e ->
              List.fold_left
                (fun acc r ->
                  let v = eval_expr_in ctx r e in
                  match (acc, v) with
                  | _, Value.Null -> acc
                  | Value.Null, v -> v
                  | acc, v -> if Value.compare_key v acc > 0 then v else acc)
                Value.Null members
          | Avg e ->
              let vs =
                List.filter_map
                  (fun r ->
                    match eval_expr_in ctx r e with
                    | Value.Null -> None
                    | v -> Some (Value.to_float v))
                  members
              in
              if vs = [] then Value.Null
              else Value.Float (List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs))
          | Xml_agg (e, order) ->
              let members =
                if order = [] then members
                else
                  let decorated =
                    List.map
                      (fun r -> (List.map (fun (k, d) -> (eval_expr_in ctx r k, d)) order, r))
                      members
                  in
                  if Option.is_some ctx.stats && not (in_order sort_key_cmp decorated) then
                    sorted := true;
                  List.map snd (List.stable_sort sort_key_cmp decorated)
              in
              xml_value ~streaming:ctx.xml_streaming (fun sink ->
                  List.iter (fun r -> emit_content sink (eval_expr_in ctx r e)) members)
          | String_agg (e, sep) ->
              Value.Str
                (String.concat sep
                   (List.filter_map
                      (fun r ->
                        match eval_expr_in ctx r e with
                        | Value.Null -> None
                        | v -> Some (Value.to_string v))
                      members))
        in
        (n, value))
      aggs
  in
  group_cols @ agg_cols @ outer

(* ------------------------------------------------------------------ *)
(* Compiled plan execution: layouts, closures, batches                 *)
(* ------------------------------------------------------------------ *)

let default_batch_size = 1024

(** A batch cursor: [None] at end of stream; batches are never empty. *)
type cursor = unit -> Value.t array array option

(** A compiled plan: its output layout plus an open function taking the
    physical outer (correlation) row.  Opening yields a fresh cursor, so
    one compilation serves many executions (correlated subqueries open
    once per outer row). *)
type compiled = { c_layout : Layout.t; c_open : Value.t array -> cursor }

type cctx = {
  cdb : Database.t;
  cstats : Stats.t option;
  cbatch : int;
  cxml_streaming : bool;
  cpartition : (string * int * int) option;
      (* (table, lo, hi): restrict the Seq_scan over [table] to the
         half-open row-id range [lo, hi).  Domain-parallel execution
         compiles one plan per range; the caller guarantees [table] is the
         plan's single driving scan (Pipeline.partition_table). *)
}

let resolve_slot lay alias name =
  match Layout.slot_opt lay ?alias name with
  | Some s -> s
  | None ->
      err "unknown column %s (available columns: %s)"
        (match alias with Some a -> a ^ "." ^ name | None -> name)
        (Layout.describe lay)

(* duplicate output names within one operator would make slot resolution
   ambiguous — reject at plan-open time *)
let check_distinct what names =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then err "ambiguous column %s: bound more than once in %s" n what
      else Hashtbl.add seen n ())
    names

(* drain a cursor to a row list (subqueries, blocking operators) *)
let drain_cursor (next : cursor) : Value.t array list =
  let rec go acc =
    match next () with None -> List.concat (List.rev acc) | Some b -> go (Array.to_list b :: acc)
  in
  go []

(* Row arrays are made with the empty-row atom and then filled, never
   with Array.init/map/of_list: those seed the array with its first
   element, and an array longer than 256 words seeded with a young block
   forces a minor collection (caml_make_vect) — on every batch, promoting
   the batch with it. *)
let rows_init n (f : int -> 'a array) : 'a array array =
  let a = Array.make n [||] in
  for i = 0 to n - 1 do
    Array.unsafe_set a i (f i)
  done;
  a

(* the rows of a list accumulated in reverse *)
let rows_of_rev_list (l : Value.t array list) : Value.t array array =
  let n = List.length l in
  let a = Array.make n [||] in
  List.iteri (fun i r -> Array.unsafe_set a (n - 1 - i) r) l;
  a

(* drain a cursor to one row array; a single batch is returned as is
   (batches are never mutated once produced) *)
let drain_array (next : cursor) : Value.t array array =
  match next () with
  | None -> [||]
  | Some b -> (
      match next () with
      | None -> b
      | Some b2 ->
          let rec go acc = match next () with None -> List.rev acc | Some b -> go (b :: acc) in
          Array.concat (go [ b2; b ]))

(* chunked cursor over an indexed row source, appending the outer tail to
   every produced row; rows are shared (not copied) when there is no tail *)
let chunked_cursor ~batch ~count ~get (outer : Value.t array) : cursor =
  let pos = ref 0 in
  let k = Array.length outer in
  fun () ->
    let n = count () in
    if !pos >= n then None
    else (
      let len = min batch (n - !pos) in
      let base = !pos in
      pos := base + len;
      let make j =
        let r : Value.t array = get (base + j) in
        if k = 0 then r
        else (
          let m = Array.length r in
          let out = Array.make (m + k) Value.Null in
          Array.blit r 0 out 0 m;
          Array.blit outer 0 out m k;
          out)
      in
      Some (rows_init len make))

(* cursor over a lazily computed materialised result (Sort/Limit/Aggregate
   compute everything on the first pull, then emit in batches) *)
let lazy_array_cursor batch (compute : unit -> Value.t array array) : cursor =
  let state = ref None in
  let pos = ref 0 in
  fun () ->
    let arr =
      match !state with
      | Some a -> a
      | None ->
          let a = compute () in
          state := Some a;
          a
    in
    let n = Array.length arr in
    if !pos >= n then None
    else (
      let len = min batch (n - !pos) in
      let b = if len = n then arr else Array.sub arr !pos len in
      pos := !pos + len;
      Some b)

(* per-open instrumentation: loops per open, rows per batch, inclusive
   wall time around open and every pull (child time is included, like the
   interpreted executor's inclusive accounting) *)
let instrumented_open (s : Stats.op_stats) open_ (outer : Value.t array) : cursor =
  let t0 = Unix.gettimeofday () in
  s.Stats.loops <- s.Stats.loops + 1;
  let next = open_ outer in
  s.Stats.time_ms <- s.Stats.time_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
  fun () ->
    let t0 = Unix.gettimeofday () in
    let b = next () in
    s.Stats.time_ms <- s.Stats.time_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0);
    (match b with Some rows -> s.Stats.rows <- s.Stats.rows + Array.length rows | None -> ());
    b

(* An XMLAgg's stream runs its member emitters, and the subplans inside
   them, when a consumer drains it — after the Aggregate's timed pull has
   returned.  Under stats the producer carries its own clock and adds its
   wall time to the Aggregate, so the Aggregate's inclusive time covers
   its members' subplans. *)
let charged (s : Stats.op_stats) produce sink =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      s.Stats.time_ms <- s.Stats.time_ms +. ((Unix.gettimeofday () -. t0) *. 1000.0))
    (fun () -> produce sink)

(* SQL truth values, shared rather than boxed per row *)
let v_true = Value.Int 1
let v_false = Value.Int 0
let of_bool b = if b then v_true else v_false

(* ------------------------------------------------------------------ *)
(* Ordering: one helper for Sort and XMLAgg ORDER BY                   *)
(* ------------------------------------------------------------------ *)

(* Rows [i] and [j] compared key by key; [keys] holds [nk] keys per row,
   row-major.  A top-level loop over its arguments, so a comparison
   allocates nothing. *)
let rec cmp_rows (keys : Value.t array) nk (desc : bool array) i j k =
  if k >= nk then 0
  else
    let c =
      Value.compare_key (Array.unsafe_get keys ((i * nk) + k)) (Array.unsafe_get keys ((j * nk) + k))
    in
    if c <> 0 then if Array.unsafe_get desc k then -c else c else cmp_rows keys nk desc i j (k + 1)

(** [order_rows kfs desc rows] — [rows] in key order.  The keys are
    computed once per row into one array, and checked against the
    previous row's as they are: input that already arrives in key order
    is returned itself (physically: callers test [==] to count the
    skipped sort) — equal keys count as in order, which keeps the result
    stable.  Otherwise a stable index sort orders the rows. *)
let order_rows (kfs : (Value.t array -> Value.t) array) (desc : bool array)
    (rows : Value.t array array) : Value.t array array =
  let n = Array.length rows and nk = Array.length kfs in
  if n = 0 || nk = 0 then rows
  else (
    let keys = Array.make (n * nk) Value.Null in
    let in_order = ref true in
    for i = 0 to n - 1 do
      let r = Array.unsafe_get rows i in
      for k = 0 to nk - 1 do
        Array.unsafe_set keys ((i * nk) + k) ((Array.unsafe_get kfs k) r)
      done;
      if !in_order && i > 0 && cmp_rows keys nk desc (i - 1) i 0 > 0 then in_order := false
    done;
    if !in_order then rows
    else (
      let idx = Array.init n Fun.id in
      Array.stable_sort (fun a b -> cmp_rows keys nk desc a b 0) idx;
      rows_init n (fun j -> Array.unsafe_get rows (Array.unsafe_get idx j))))

(** Compile an expression against a layout into a closure over physical
    rows.  All column references — including those inside never-taken
    CASE branches and correlated subqueries — resolve now; failures are
    plan-open [Exec_error]s listing the available columns. *)
let rec cexpr ctx (lay : Layout.t) (e : expr) : Value.t array -> Value.t =
  match e with
  | Const v -> fun _ -> v
  | Col (alias, name) ->
      let s = resolve_slot lay alias name in
      fun r -> Array.unsafe_get r s
  | Not e ->
      let f = cexpr ctx lay e in
      fun r -> of_bool (not (bool_of_value (f r)))
  | Is_null e ->
      let f = cexpr ctx lay e in
      fun r -> of_bool (Value.is_null (f r))
  | Binop (op, a, b) -> cbinop ctx lay op a b
  | Fn (f, args) -> cfn ctx lay f args
  | Case (whens, els) ->
      let whens = List.map (fun (c, r) -> (cexpr ctx lay c, cexpr ctx lay r)) whens in
      let els = Option.map (cexpr ctx lay) els in
      fun r ->
        let rec go = function
          | [] -> ( match els with Some f -> f r | None -> Value.Null)
          | (c, t) :: rest -> if bool_of_value (c r) then t r else go rest
        in
        go whens
  | Xml_element _ | Xml_forest _ | Xml_concat _ | Xml_text _ | Xml_comment _ | Xml_pi _ ->
      (* the outermost constructor: the only one that becomes a value *)
      let em = cemit ctx lay e in
      let streaming = ctx.cxml_streaming in
      fun r -> xml_value ~streaming (em r)
  | Scalar_subquery p ->
      let cp = cplan ctx lay p in
      let first =
        match Layout.entries cp.c_layout with [] -> None | (_, s) :: _ -> Some s
      in
      fun r -> (
        (* full drain, like the interpreted executor, so per-operator
           actual-row counts agree between the two *)
        let rows = drain_array (cp.c_open r) in
        match first with
        | Some s when Array.length rows > 0 -> rows.(0).(s)
        | _ -> Value.Null)
  | Exists p ->
      let cp = cplan ctx lay p in
      fun r -> of_bool (Array.length (drain_array (cp.c_open r)) > 0)

(** Fused XML publishing: compile an expression to an emitter pushing its
    content events straight into the consumer's sink.  Constructors
    nested in constructors (and XMLAgg members) call their emitters
    directly — no per-row [Value.Xml_stream] wrapper, no per-level tree
    in DOM mode.  Start tags are built once, here; a CASE emits the
    branch it takes; any other expression is evaluated and its value
    replayed through {!emit_content}. *)
and cemit ctx lay (e : expr) : Value.t array -> E.sink -> unit =
  match e with
  | Xml_element (name, attrs, kids) ->
      let start = E.Start_element (X.qname name) in
      let attrs = Array.of_list (List.map (fun (an, ae) -> (X.qname an, cexpr ctx lay ae)) attrs) in
      let kids = Array.of_list (List.map (cemit ctx lay) kids) in
      fun r sink ->
        sink.E.emit start;
        for i = 0 to Array.length attrs - 1 do
          let aq, af = Array.unsafe_get attrs i in
          match af r with Value.Null -> () | v -> sink.E.emit (E.Attr (aq, Value.to_string v))
        done;
        for i = 0 to Array.length kids - 1 do
          (Array.unsafe_get kids i) r sink
        done;
        sink.E.emit E.End_element
  | Xml_forest fields ->
      let fields =
        Array.of_list
          (List.map (fun (n, fe) -> (E.Start_element (X.qname n), cexpr ctx lay fe)) fields)
      in
      fun r sink ->
        for i = 0 to Array.length fields - 1 do
          let start, ff = Array.unsafe_get fields i in
          match ff r with
          | Value.Null -> ()
          | v ->
              sink.E.emit start;
              emit_content sink v;
              sink.E.emit E.End_element
        done
  | Xml_concat es ->
      let ems = Array.of_list (List.map (cemit ctx lay) es) in
      fun r sink ->
        for i = 0 to Array.length ems - 1 do
          (Array.unsafe_get ems i) r sink
        done
  | Xml_text e -> (
      let f = cexpr ctx lay e in
      fun r sink ->
        match f r with Value.Null -> () | v -> sink.E.emit (E.Text (Value.to_string v)))
  | Xml_comment e ->
      let f = cexpr ctx lay e in
      fun r sink -> sink.E.emit (E.Comment (Value.to_string (f r)))
  | Xml_pi (t, e) ->
      let f = cexpr ctx lay e in
      fun r sink -> sink.E.emit (E.Pi (t, Value.to_string (f r)))
  | Case (whens, els) ->
      let whens = List.map (fun (c, b) -> (cexpr ctx lay c, cemit ctx lay b)) whens in
      let els = Option.map (cemit ctx lay) els in
      fun r sink ->
        let rec go = function
          | [] -> ( match els with Some em -> em r sink | None -> ())
          | (c, em) :: rest -> if bool_of_value (c r) then em r sink else go rest
        in
        go whens
  | e ->
      let f = cexpr ctx lay e in
      fun r sink -> emit_content sink (f r)

and cbinop ctx lay op a b =
  let fa = cexpr ctx lay a and fb = cexpr ctx lay b in
  match op with
  | And -> fun r -> of_bool (bool_of_value (fa r) && bool_of_value (fb r))
  | Or -> fun r -> of_bool (bool_of_value (fa r) || bool_of_value (fb r))
  | Concat -> fun r -> Value.Str (Value.to_string (fa r) ^ Value.to_string (fb r))
  | Fdiv ->
      fun r -> (
        match (fa r, fb r) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | va, vb -> Value.Float (Value.to_float va /. Value.to_float vb))
  | (Add | Sub | Mul | Div | Mod) as op ->
      let iop =
        match op with
        | Add -> ( + )
        | Sub -> ( - )
        | Mul -> ( * )
        | Div -> fun x y -> if y = 0 then err "division by zero" else x / y
        | Mod -> fun x y -> if y = 0 then err "division by zero" else x mod y
        | _ -> assert false
      in
      let fop =
        match op with
        | Add -> ( +. )
        | Sub -> ( -. )
        | Mul -> ( *. )
        | Div -> ( /. )
        | Mod -> Float.rem
        | _ -> assert false
      in
      fun r -> (
        match (fa r, fb r) with
        | Value.Null, _ | _, Value.Null -> Value.Null
        | Value.Int x, Value.Int y -> Value.Int (iop x y)
        | va, vb -> Value.Float (fop (Value.to_float va) (Value.to_float vb)))
  | (Eq | Neq | Lt | Leq | Gt | Geq) as op ->
      let test =
        match op with
        | Eq -> fun c -> c = 0
        | Neq -> fun c -> c <> 0
        | Lt -> fun c -> c < 0
        | Leq -> fun c -> c <= 0
        | Gt -> fun c -> c > 0
        | Geq -> fun c -> c >= 0
        | _ -> assert false
      in
      fun r -> (
        match Value.compare_sql (fa r) (fb r) with
        | None -> Value.Null
        | Some c -> of_bool (test c))

and cfn ctx lay f args =
  let cs = List.map (cexpr ctx lay) args in
  let f1 () = match cs with [ f ] -> f | _ -> assert false in
  match (String.lowercase_ascii f, List.length args) with
  | "concat", _ ->
      fun r -> Value.Str (String.concat "" (List.map (fun f -> Value.to_string (f r)) cs))
  | "upper", 1 ->
      let f0 = f1 () in
      fun r -> Value.Str (String.uppercase_ascii (Value.to_string (f0 r)))
  | "lower", 1 ->
      let f0 = f1 () in
      fun r -> Value.Str (String.lowercase_ascii (Value.to_string (f0 r)))
  | "length", 1 ->
      let f0 = f1 () in
      fun r -> Value.Int (String.length (Value.to_string (f0 r)))
  | "abs", 1 ->
      let f0 = f1 () in
      fun r -> (
        match f0 r with
        | Value.Int i -> Value.Int (abs i)
        | x -> Value.Float (Float.abs (Value.to_float x)))
  | "round", 1 ->
      let f0 = f1 () in
      fun r -> (
        match f0 r with
        | Value.Null -> Value.Null
        | x -> Value.Float (xpath_round (Value.to_float x)))
  | "floor", 1 ->
      let f0 = f1 () in
      fun r -> (
        match f0 r with Value.Null -> Value.Null | x -> Value.Float (Float.floor (Value.to_float x)))
  | "ceiling", 1 ->
      let f0 = f1 () in
      fun r -> (
        match f0 r with Value.Null -> Value.Null | x -> Value.Float (Float.ceil (Value.to_float x)))
  | "coalesce", _ ->
      fun r ->
        let rec go = function
          | [] -> Value.Null
          | f :: rest -> ( match f r with Value.Null -> go rest | x -> x)
        in
        go cs
  | name, n -> err "unknown scalar function %s/%d" name n

(* Aggregates over one group's members, in input order.  [sorted] is set
   when an ordered XMLAgg had to sort them (the presorted counter). *)
and cagg ctx lay sorted ?charge (a : agg) : Value.t array array -> Value.t =
  let count_non_null f ms =
    let c = ref 0 in
    for i = 0 to Array.length ms - 1 do
      if not (Value.is_null (f (Array.unsafe_get ms i))) then incr c
    done;
    !c
  in
  match a with
  | Count_star -> fun ms -> Value.Int (Array.length ms)
  | Count e ->
      let f = cexpr ctx lay e in
      fun ms -> Value.Int (count_non_null f ms)
  | Sum e ->
      let f = cexpr ctx lay e in
      fun ms ->
        (* one pass: the integer sum while every value is an Int, the
           float sum of all of them in the same order *)
        let seen = ref false and all_int = ref true and isum = ref 0 and fsum = ref 0.0 in
        for i = 0 to Array.length ms - 1 do
          match f (Array.unsafe_get ms i) with
          | Value.Null -> ()
          | v ->
              seen := true;
              (match v with Value.Int i -> isum := !isum + i | _ -> all_int := false);
              fsum := !fsum +. Value.to_float v
        done;
        if not !seen then Value.Null else if !all_int then Value.Int !isum else Value.Float !fsum
  | Min e ->
      let f = cexpr ctx lay e in
      fun ms ->
        Array.fold_left
          (fun acc r ->
            match (acc, f r) with
            | acc, Value.Null -> acc
            | Value.Null, v -> v
            | acc, v -> if Value.compare_key v acc < 0 then v else acc)
          Value.Null ms
  | Max e ->
      let f = cexpr ctx lay e in
      fun ms ->
        Array.fold_left
          (fun acc r ->
            match (acc, f r) with
            | acc, Value.Null -> acc
            | Value.Null, v -> v
            | acc, v -> if Value.compare_key v acc > 0 then v else acc)
          Value.Null ms
  | Avg e ->
      let f = cexpr ctx lay e in
      fun ms ->
        let n = ref 0 and sum = ref 0.0 in
        for i = 0 to Array.length ms - 1 do
          match f (Array.unsafe_get ms i) with
          | Value.Null -> ()
          | v ->
              incr n;
              sum := !sum +. Value.to_float v
        done;
        if !n = 0 then Value.Null else Value.Float (!sum /. float_of_int !n)
  | Xml_agg (e, order) ->
      let em = cemit ctx lay e in
      let kfs = Array.of_list (List.map (fun (k, _) -> cexpr ctx lay k) order) in
      let desc = Array.of_list (List.map (fun (_, d) -> d = Desc) order) in
      let streaming = ctx.cxml_streaming in
      let timed = match charge with Some s when streaming -> charged s | _ -> Fun.id in
      fun ms ->
        let ordered = order_rows kfs desc ms in
        if ordered != ms then sorted := true;
        xml_value ~streaming (timed (fun sink -> Array.iter (fun r -> em r sink) ordered))
  | String_agg (e, sep) ->
      let f = cexpr ctx lay e in
      fun ms ->
        Value.Str
          (String.concat sep
             (Array.fold_right
                (fun r acc -> match f r with Value.Null -> acc | v -> Value.to_string v :: acc)
                ms []))

(** Compile one operator against the layout of its correlation
    environment.  The returned layout is own columns first, outer row as
    the physical tail — the slot-level image of the interpreted
    executor's [bindings @ outer]. *)
and cplan ctx (outer_lay : Layout.t) (p : plan) : compiled =
  let sopt = match ctx.cstats with None -> None | Some st -> Stats.find st p in
  let c =
    match p with
    | Seq_scan { table; alias } ->
        let tbl = Database.table ctx.cdb table in
        let names = Array.map (fun c -> c.Table.col_name) tbl.Table.columns in
        let lay = Layout.concat (Layout.of_columns ~alias names) outer_lay in
        (* row-id window of this scan: the whole table, unless it is the
           partitioned driving scan of a domain-parallel execution *)
        let base, count =
          match ctx.cpartition with
          | Some (t, lo, hi) when t = table ->
              let lo = max 0 lo in
              (lo, fun () -> max 0 (min hi (Table.size tbl) - lo))
          | _ -> (0, fun () -> Table.size tbl)
        in
        let open_ outer =
          (match sopt with
          | Some s -> s.Stats.heap_rows <- s.Stats.heap_rows + count ()
          | None -> ());
          chunked_cursor ~batch:ctx.cbatch ~count
            ~get:(fun i -> Table.unsafe_row tbl (base + i))
            outer
        in
        { c_layout = lay; c_open = open_ }
    | Index_scan { table; alias; index_column; lo; hi } ->
        let tbl = Database.table ctx.cdb table in
        let idx =
          match Table.find_index tbl index_column with
          | Some i -> i
          | None -> err "no index on %s.%s" table index_column
        in
        let names = Array.map (fun c -> c.Table.col_name) tbl.Table.columns in
        let lay = Layout.concat (Layout.of_columns ~alias names) outer_lay in
        (* bounds are correlation expressions: compiled against the outer
           layout, evaluated once per open on the outer row *)
        let cbound = function
          | Unbounded -> fun _ -> Btree.Unbounded
          | Incl e ->
              let f = cexpr ctx outer_lay e in
              fun o -> Btree.Inclusive (f o)
          | Excl e ->
              let f = cexpr ctx outer_lay e in
              fun o -> Btree.Exclusive (f o)
        in
        let blo = cbound lo and bhi = cbound hi in
        let open_ outer =
          let tree = idx.Table.tree in
          let probes0 = Btree.probes tree and nodes0 = Btree.node_visits tree in
          let rids = Btree.range_rids tree ~lo:(blo outer) ~hi:(bhi outer) in
          (match sopt with
          | Some s ->
              s.Stats.btree_probes <- s.Stats.btree_probes + (Btree.probes tree - probes0);
              s.Stats.btree_nodes <- s.Stats.btree_nodes + (Btree.node_visits tree - nodes0);
              s.Stats.heap_rows <- s.Stats.heap_rows + Array.length rids
          | None -> ());
          chunked_cursor ~batch:ctx.cbatch
            ~count:(fun () -> Array.length rids)
            ~get:(fun i -> Table.unsafe_row tbl rids.(i))
            outer
        in
        { c_layout = lay; c_open = open_ }
    | Filter (cond, input) ->
        let ci = cplan ctx outer_lay input in
        let fc = cexpr ctx ci.c_layout cond in
        let open_ outer =
          let next = ci.c_open outer in
          let rec pull () =
            match next () with
            | None -> None
            | Some b ->
                let n = Array.length b in
                let keep = Bytes.make n '\000' and kept = ref 0 in
                for i = 0 to n - 1 do
                  if bool_of_value (fc (Array.unsafe_get b i)) then (
                    Bytes.unsafe_set keep i '\001';
                    incr kept)
                done;
                if !kept = 0 then pull ()
                else if !kept = n then Some b
                else (
                  let out = Array.make !kept [||] and j = ref 0 in
                  for i = 0 to n - 1 do
                    if Bytes.unsafe_get keep i = '\001' then (
                      Array.unsafe_set out !j (Array.unsafe_get b i);
                      incr j)
                  done;
                  Some out)
          in
          pull
        in
        { c_layout = ci.c_layout; c_open = open_ }
    | Project (fields, input) ->
        check_distinct "projection output" (List.map snd fields);
        let ci = cplan ctx outer_lay input in
        let fs = Array.of_list (List.map (fun (e, _) -> cexpr ctx ci.c_layout e) fields) in
        let nf = Array.length fs in
        let lay =
          Layout.concat
            (Layout.of_list ~width:nf (List.mapi (fun i (_, n) -> (n, i)) fields))
            outer_lay
        in
        let k = Layout.width outer_lay in
        let open_ outer =
          let next = ci.c_open outer in
          fun () ->
            match next () with
            | None -> None
            | Some b ->
                Some
                  (rows_init (Array.length b) (fun j ->
                       let r = Array.unsafe_get b j in
                       let out = Array.make (nf + k) Value.Null in
                       for i = 0 to nf - 1 do
                         out.(i) <- (Array.unsafe_get fs i) r
                       done;
                       if k > 0 then Array.blit outer 0 out nf k;
                       out))
        in
        { c_layout = lay; c_open = open_ }
    | Nested_loop { outer = op; inner = ip; join_cond } ->
        let co = cplan ctx outer_lay op in
        (* the inner side is correlated on the outer side's rows; its rows
           physically end with the outer row, so its layout already is the
           join layout (first-match-wins gives the inner side precedence,
           exactly like the interpreted [irow @ orow]) *)
        let ci = cplan ctx co.c_layout ip in
        let fcond = Option.map (cexpr ctx ci.c_layout) join_cond in
        let open_ outer =
          let onext = co.c_open outer in
          let obatch = ref [||] and oidx = ref 0 in
          let outer_done = ref false in
          let buf = ref [] and nbuf = ref 0 in
          let push r =
            buf := r :: !buf;
            incr nbuf
          in
          let rec fill () =
            if !nbuf >= ctx.cbatch then ()
            else if !oidx < Array.length !obatch then (
              let orow = (!obatch).(!oidx) in
              incr oidx;
              let inext = ci.c_open orow in
              let rec inner_drain () =
                match inext () with
                | None -> ()
                | Some ib ->
                    (match fcond with
                    | None -> Array.iter push ib
                    | Some f -> Array.iter (fun r -> if bool_of_value (f r) then push r) ib);
                    inner_drain ()
              in
              inner_drain ();
              fill ())
            else if not !outer_done then
              match onext () with
              | None -> outer_done := true
              | Some b ->
                  obatch := b;
                  oidx := 0;
                  fill ()
          in
          fun () ->
            fill ();
            if !nbuf = 0 then None
            else (
              let out = rows_of_rev_list !buf in
              buf := [];
              nbuf := 0;
              Some out)
        in
        { c_layout = ci.c_layout; c_open = open_ }
    | Hash_join { outer = op; inner = ip; keys; kind } ->
        let co = cplan ctx outer_lay op in
        (* both sides are compiled against the enclosing environment only
           (set-oriented: the build side is evaluated once per open, not
           once per probe row); key expressions resolve against their own
           side's layout *)
        let ci = cplan ctx outer_lay ip in
        let okeys = Array.of_list (List.map (fun (ok, _) -> cexpr ctx co.c_layout ok) keys) in
        let ikeys = Array.of_list (List.map (fun (_, ik) -> cexpr ctx ci.c_layout ik) keys) in
        (* build rows end with the enclosing outer row; only their own
           slots join the output (the probe row carries the tail) *)
        let own_w = Layout.width ci.c_layout - Layout.width outer_lay in
        let pw = Layout.width co.c_layout in
        let lay =
          match kind with
          | Inner | Left_outer -> Layout.concat (Layout.prefix ci.c_layout own_w) co.c_layout
          | Semi | Anti -> co.c_layout
        in
        let open_ outer =
          (* build phase: hash the whole build side on its key tuple *)
          let tbl = Hashtbl.create 64 in
          let inext = ci.c_open outer in
          let rec build () =
            match inext () with
            | None -> ()
            | Some b ->
                Array.iter
                  (fun irow ->
                    (match sopt with
                    | Some s -> s.Stats.build_rows <- s.Stats.build_rows + 1
                    | None -> ());
                    let kvs = Array.map (fun f -> f irow) ikeys in
                    if not (Array.exists Value.is_null kvs) then (
                      let key = hash_key_string kvs in
                      let cell =
                        match Hashtbl.find_opt tbl key with
                        | Some c -> c
                        | None ->
                            let c = ref [] in
                            Hashtbl.add tbl key c;
                            c
                      in
                      cell := (irow, kvs) :: !cell))
                  b;
                build ()
          in
          build ();
          Hashtbl.iter (fun _ c -> c := List.rev !c) tbl;
          let probe prow =
            let kvs = Array.map (fun f -> f prow) okeys in
            if Array.exists Value.is_null kvs then []
            else
              match Hashtbl.find_opt tbl (hash_key_string kvs) with
              | None -> []
              | Some cell -> List.filter (fun (_, ikvs) -> hash_keys_equal kvs ikvs) !cell
          in
          let hit n =
            match sopt with
            | Some s -> s.Stats.probe_hits <- s.Stats.probe_hits + n
            | None -> ()
          in
          let join_out irow prow =
            let out = Array.make (own_w + pw) Value.Null in
            Array.blit irow 0 out 0 own_w;
            Array.blit prow 0 out own_w pw;
            out
          in
          (* probe phase: stream the probe side in batches *)
          let onext = co.c_open outer in
          let obatch = ref [||] and oidx = ref 0 in
          let outer_done = ref false in
          let buf = ref [] and nbuf = ref 0 in
          let push r =
            buf := r :: !buf;
            incr nbuf
          in
          let rec fill () =
            if !nbuf >= ctx.cbatch then ()
            else if !oidx < Array.length !obatch then (
              let prow = (!obatch).(!oidx) in
              incr oidx;
              (match kind with
              | Inner ->
                  let ms = probe prow in
                  hit (List.length ms);
                  List.iter (fun (irow, _) -> push (join_out irow prow)) ms
              | Left_outer -> (
                  match probe prow with
                  | [] ->
                      let out = Array.make (own_w + pw) Value.Null in
                      Array.blit prow 0 out own_w pw;
                      push out
                  | ms ->
                      hit (List.length ms);
                      List.iter (fun (irow, _) -> push (join_out irow prow)) ms)
              | Semi -> (
                  match probe prow with
                  | [] -> ()
                  | _ :: _ ->
                      hit 1;
                      push prow)
              | Anti -> (
                  match probe prow with
                  | [] -> push prow
                  | _ :: _ -> hit 1));
              fill ())
            else if not !outer_done then
              match onext () with
              | None -> outer_done := true
              | Some b ->
                  obatch := b;
                  oidx := 0;
                  fill ()
          in
          fun () ->
            fill ();
            if !nbuf = 0 then None
            else (
              let out = rows_of_rev_list !buf in
              buf := [];
              nbuf := 0;
              Some out)
        in
        { c_layout = lay; c_open = open_ }
    | Aggregate { group_by; aggs; input } ->
        check_distinct "aggregate output" (List.map snd group_by @ List.map snd aggs);
        let ci = cplan ctx outer_lay input in
        let gfs = Array.of_list (List.map (fun (e, _) -> cexpr ctx ci.c_layout e) group_by) in
        let sorted = ref false in
        let afs =
          Array.of_list (List.map (fun (a, _) -> cagg ctx ci.c_layout sorted ?charge:sopt a) aggs)
        in
        let ordered_agg =
          List.exists (function Xml_agg (_, _ :: _), _ -> true | _ -> false) aggs
        in
        let ng = Array.length gfs and na = Array.length afs in
        let k = Layout.width outer_lay in
        let lay =
          Layout.concat
            (Layout.of_list ~width:(ng + na)
               (List.mapi (fun i (_, n) -> (n, i)) group_by
               @ List.mapi (fun i (_, n) -> (n, ng + i)) aggs))
            outer_lay
        in
        let open_ outer =
          let next = ci.c_open outer in
          (* group columns from the first member (a group is never empty;
             only the single group of an ungrouped aggregate can be) *)
          let make_group (members : Value.t array array) =
            let out = Array.make (ng + na + k) Value.Null in
            if Array.length members > 0 then Array.iteri (fun i gf -> out.(i) <- gf members.(0)) gfs;
            Array.iteri (fun i af -> out.(ng + i) <- af members) afs;
            if k > 0 then Array.blit outer 0 out (ng + na) k;
            out
          in
          lazy_array_cursor ctx.cbatch (fun () ->
              let rows = drain_array next in
              sorted := false;
              let out =
                if ng = 0 then [| make_group rows |]
                else (
                  (* groups in first-appearance order, members in input order *)
                  let groups = Hashtbl.create 16 and order = ref [] in
                  Array.iter
                    (fun r ->
                      let key = Array.fold_right (fun gf acc -> Value.to_string (gf r) :: acc) gfs [] in
                      match Hashtbl.find_opt groups key with
                      | Some cell -> cell := r :: !cell
                      | None ->
                          let cell = ref [ r ] in
                          Hashtbl.add groups key cell;
                          order := cell :: !order)
                    rows;
                  rows_of_rev_list (List.map (fun cell -> make_group (rows_of_rev_list !cell)) !order))
              in
              (match sopt with
              | Some s when ordered_agg && not !sorted -> s.Stats.presorted <- s.Stats.presorted + 1
              | _ -> ());
              out)
        in
        { c_layout = lay; c_open = open_ }
    | Sort (keys, input) ->
        let ci = cplan ctx outer_lay input in
        let kfs = Array.of_list (List.map (fun (k, _) -> cexpr ctx ci.c_layout k) keys) in
        let desc = Array.of_list (List.map (fun (_, d) -> d = Desc) keys) in
        let open_ outer =
          let next = ci.c_open outer in
          lazy_array_cursor ctx.cbatch (fun () ->
              let rows = drain_array next in
              let ordered = order_rows kfs desc rows in
              (match sopt with
              | Some s when ordered == rows -> s.Stats.presorted <- s.Stats.presorted + 1
              | _ -> ());
              ordered)
        in
        { c_layout = ci.c_layout; c_open = open_ }
    | Limit (n, input) ->
        let ci = cplan ctx outer_lay input in
        let open_ outer =
          let next = ci.c_open outer in
          lazy_array_cursor ctx.cbatch (fun () ->
              (* the interpreted executor materialises the child fully
                 before truncating; do the same so per-operator actual-row
                 counts are identical under EXPLAIN ANALYZE *)
              let rows = drain_array next in
              if Array.length rows <= n then rows else Array.sub rows 0 (max 0 n))
        in
        { c_layout = ci.c_layout; c_open = open_ }
    | Values { cols; rows } ->
        check_distinct "VALUES columns" cols;
        let nc = List.length cols in
        let data =
          Array.of_list
            (List.map
               (fun vs ->
                 if List.length vs <> nc then
                   err "VALUES row arity %d does not match %d column(s)" (List.length vs) nc
                 else Array.of_list vs)
               rows)
        in
        let lay =
          Layout.concat
            (Layout.of_list ~width:nc (List.mapi (fun i c -> (c, i)) cols))
            outer_lay
        in
        let open_ outer =
          chunked_cursor ~batch:ctx.cbatch
            ~count:(fun () -> Array.length data)
            ~get:(fun i -> data.(i))
            outer
        in
        { c_layout = lay; c_open = open_ }
  in
  match sopt with
  | None -> c
  | Some s -> { c with c_open = instrumented_open s c.c_open }

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let eval_expr db (env : row) (e : expr) : Value.t =
  eval_expr_in { db; stats = None; xml_streaming = false } env e

(** Reference (interpreted) executor — the original assoc-row semantics. *)
let run_interpreted db ?(outer = []) ?(xml_streaming = false) (p : plan) : row list =
  run_in { db; stats = None; xml_streaming } ~outer p

let run_interpreted_analyzed db ?(outer = []) (p : plan) : row list * Stats.t =
  let stats = Stats.create p in
  let rows = run_in { db; stats = Some stats; xml_streaming = false } ~outer p in
  (rows, stats)

(** [compile db plan] — the plan-open pass: resolve every column
    reference to a slot, compile expressions to closures, build batch
    cursors.  [xml_streaming] makes XML constructors produce
    [Value.Xml_stream] (events on demand) instead of node trees.
    @raise Exec_error for unresolvable or ambiguous columns. *)
let compile db ?stats ?(outer = Layout.empty) ?(batch_size = default_batch_size)
    ?(xml_streaming = false) ?partition (p : plan) : compiled =
  cplan
    {
      cdb = db;
      cstats = stats;
      cbatch = max 1 batch_size;
      cxml_streaming = xml_streaming;
      cpartition = partition;
    }
    outer p

let compiled_layout (c : compiled) = c.c_layout

let open_cursor (c : compiled) ?(outer = [||]) () : cursor = c.c_open outer

(** [run_arrays db plan] — compiled execution to physical rows plus their
    layout; the allocation-light entry point for hot paths. *)
let run_arrays db ?batch_size ?xml_streaming ?partition (p : plan) :
    Layout.t * Value.t array list =
  let c = compile db ?batch_size ?xml_streaming ?partition p in
  (c.c_layout, drain_cursor (c.c_open [||]))

let run_arrays_analyzed db ?batch_size ?xml_streaming ?partition (p : plan) :
    (Layout.t * Value.t array list) * Stats.t =
  let stats = Stats.create p in
  let c = compile db ~stats ?batch_size ?xml_streaming ?partition p in
  ((c.c_layout, drain_cursor (c.c_open [||])), stats)

(* an externally supplied assoc environment becomes a physical outer row *)
let outer_env (outer : row) =
  (Layout.of_bindings (List.map fst outer), Array.of_list (List.map snd outer))

let run db ?(outer = []) (p : plan) : row list =
  let olay, orow = outer_env outer in
  let c = compile db ~outer:olay p in
  List.map (Layout.to_assoc c.c_layout) (drain_cursor (c.c_open orow))

(** [run_analyzed db plan] — execute with per-operator instrumentation;
    returns the rows and the filled collector (EXPLAIN ANALYZE). *)
let run_analyzed db ?(outer = []) (p : plan) : row list * Stats.t =
  let stats = Stats.create p in
  let olay, orow = outer_env outer in
  let c = compile db ~stats ~outer:olay p in
  (List.map (Layout.to_assoc c.c_layout) (drain_cursor (c.c_open orow)), stats)

(** First column of each result row — convenient for single-column queries. *)
let run_column db ?(outer = []) p =
  let olay, orow = outer_env outer in
  let c = compile db ~outer:olay p in
  let rows = drain_cursor (c.c_open orow) in
  match Layout.entries c.c_layout with
  | [] -> List.map (fun _ -> Value.Null) rows
  | (_, s) :: _ -> List.map (fun r -> r.(s)) rows
