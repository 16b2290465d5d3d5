(* The closed-loop driver shared by the four workloads: one client, one
   [Xdb_core.Server] session over one engine ([jobs = 1]), a fixed,
   seeded operation count, latencies on the monotonic nanosecond clock,
   and every response checked against its oracle after its latency is
   recorded.  The traced pass drives the same operations through the
   layers' entry points one at a time inside {!Perfbench.Spans}. *)

module EN = Xdb_core.Engine
module SV = Xdb_core.Server
module M = Xdb_core.Metrics
module A = Xdb_rel.Algebra
module St = Xdb_rel.Stats
module Spans = Perfbench.Spans
module Pct = Perfbench.Pct
module Bclock = Perfbench.Bclock

(* What one request returned: its kind (known only afterwards for cache
   hits and misses) and the check of its response, which runs after the
   request's latency is recorded. *)
type outcome = { kind : string; check : unit -> bool }

(* [untimed f o]: run [f] with [o]'s check, outside the timed request —
   how traced paths take their instrumented executions. *)
let untimed f o =
  {
    o with
    check =
      (fun () ->
        f ();
        o.check ());
  }

(* Per-layer accumulators of the traced pass. *)
type layers = {
  spans : Spans.t;
  metrics : M.t;  (** the engine's own per-request collectors, merged *)
  mutable reg_lookups : int;
  mutable reg_hits : int;
  mutable analyzed : int;  (** requests with an instrumented SQL execution *)
  mutable exec_rows : int;
  mutable heap_rows : int;
  mutable btree_probes : int;
  mutable btree_nodes : int;
  mutable parsed_bytes : int;
  op_self : (string, float) Hashtbl.t;  (** operator kind -> self ms *)
}

let fresh_layers () =
  {
    spans = Spans.create ();
    metrics = M.create ();
    reg_lookups = 0;
    reg_hits = 0;
    analyzed = 0;
    exec_rows = 0;
    heap_rows = 0;
    btree_probes = 0;
    btree_nodes = 0;
    parsed_bytes = 0;
    op_self = Hashtbl.create 8;
  }

(* One set-up system, ready to serve the run's operations. *)
type instance = {
  engine : EN.t;
  server : SV.t;
  stage : int -> unit;  (** materialise operation [i]'s input, untimed *)
  run : int -> outcome;  (** operation [i] through the server session *)
  traced : layers -> int -> outcome;  (** operation [i], layer by layer *)
  is_write : int -> bool;
  static_kind : int -> string;
  shredded : bool;  (** the workload uses the engine's shred store *)
}

type workload = {
  name : string;
  ops : int;
  setup : unit -> instance;  (** the system's own set-up; timed *)
  oracle : instance -> unit;
      (** reference results, from an instance set up like the one the
          pass runs on; not timed *)
  sizes : string;
}

(* ------------------------------------------------------------------ *)
(* Helpers the workloads' traced paths share                           *)
(* ------------------------------------------------------------------ *)

let counter name l = try List.assoc name l with Not_found -> 0
let no_stage (_ : int) = ()
let rc_hits engine = counter "result_cache_hits" (EN.result_cache_counters engine)

(* The kind of a view read: served by the result cache or computed. *)
let cache_kind engine hits0 = if rc_hits engine > hits0 then "hit" else "miss"
let span l name f = Spans.with_span l.spans name f

(* [Engine.prepare] with its compile-stage metrics; registry hits are
   counted from the registry's own counters around the call. *)
let prepare l engine ~view_name ~stylesheet =
  let m = M.create () in
  let hits0 = counter "cache_hits" (EN.registry_counters engine) in
  let stmt =
    span l "registry.prepare" (fun () -> EN.prepare ~metrics:m engine ~view_name ~stylesheet)
  in
  l.reg_lookups <- l.reg_lookups + 1;
  l.reg_hits <- l.reg_hits + counter "cache_hits" (EN.registry_counters engine) - hits0;
  M.merge_into ~into:l.metrics m;
  stmt

(* [Engine.transform_stmt] with [collect_metrics]; returns the output
   and whether the result cache served it. *)
let transform l engine ~options stmt =
  let options = { options with EN.collect_metrics = true } in
  let r = span l "exec.transform" (fun () -> EN.transform_stmt ~options engine stmt) in
  let hit =
    match r.EN.metrics with
    | Some m ->
        M.merge_into ~into:l.metrics m;
        counter "result_cache_hit" (M.counters m) = 1
    | None -> false
  in
  (r.EN.output, hit)

(* The operators whose time an operator's inclusive time contains: its
   inputs, and sub-plans in the expressions it evaluates while producing
   rows.  A Project's expressions are not among them: the streaming
   executor evaluates projected XML when the result is drained, outside
   the Project's own pulls (its inclusive time then covers only its
   input), so their sub-plans are timed on their own. *)
let children = function
  | A.Seq_scan _ | A.Index_scan _ | A.Values _ -> []
  | A.Filter (c, i) -> A.subplans_of_expr c @ [ i ]
  | A.Project (_, i) -> [ i ]
  | A.Nested_loop { outer; inner; join_cond } ->
      (match join_cond with Some c -> A.subplans_of_expr c | None -> []) @ [ outer; inner ]
  | A.Hash_join { outer; inner; keys; _ } ->
      List.concat_map (fun (o, i) -> A.subplans_of_expr o @ A.subplans_of_expr i) keys
      @ [ outer; inner ]
  | A.Aggregate { group_by; aggs; input } ->
      List.concat_map (fun (e, _) -> A.subplans_of_expr e) group_by
      @ List.concat_map (fun (a, _) -> A.subplans_of_agg a) aggs
      @ [ input ]
  | A.Sort (keys, i) -> List.concat_map (fun (e, _) -> A.subplans_of_expr e) keys @ [ i ]
  | A.Limit (_, i) -> [ i ]

let op_kind = function
  | A.Seq_scan _ | A.Index_scan _ | A.Values _ -> "scan"
  | A.Filter _ -> "filter"
  | A.Project _ -> "project"
  | A.Aggregate _ -> "aggregate"
  | A.Nested_loop _ | A.Hash_join _ -> "join"
  | A.Sort _ | A.Limit _ -> "sort"

(* Self time per operator: inclusive time minus the inclusive time of
   the operators it contains. *)
let operator_self stats =
  List.map
    (fun (e : St.entry) ->
      let kids =
        List.fold_left
          (fun acc c -> match St.find stats c with Some s -> acc +. s.St.time_ms | None -> acc)
          0.0 (children e.St.node)
      in
      (op_kind e.St.node, e.St.op.St.time_ms -. kids))
    (St.entries stats)

(* One instrumented execution of the statement's SQL/XML plan (the Stats
   behind EXPLAIN ANALYZE), outside the request's timed span: operator
   self times and executor counters for the per-layer breakdown. *)
let analyze l engine view stylesheet =
  let db = EN.database engine in
  let compiled = Xdb_core.Pipeline.compile db view stylesheet in
  match Xdb_core.Pipeline.run_rewrite_analyzed db compiled with
  | _, None -> ()
  | _, Some stats ->
      l.analyzed <- l.analyzed + 1;
      List.iter
        (fun (e : St.entry) ->
          let o = e.St.op in
          l.exec_rows <- l.exec_rows + o.St.rows;
          l.heap_rows <- l.heap_rows + o.St.heap_rows;
          l.btree_probes <- l.btree_probes + o.St.btree_probes;
          l.btree_nodes <- l.btree_nodes + o.St.btree_nodes)
        (St.entries stats);
      List.iter
        (fun (kind, ms) ->
          let prev = try Hashtbl.find l.op_self kind with Not_found -> 0.0 in
          Hashtbl.replace l.op_self kind (prev +. ms))
        (operator_self stats)

(* Compute [f ()] in a forked child and return it, or [None] if the
   child failed; the child's allocations never reach this process's heap
   statistics.  The benchmark runs a single domain, so forking is safe.
   The result comes back marshalled over a pipe, read to its end before
   the child is reaped. *)
let in_child (f : unit -> 'a) : 'a option =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let code =
        try
          let oc = Unix.out_channel_of_descr w in
          Marshal.to_channel oc (f ()) [];
          close_out oc;
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
      close_in ic;
      let rec wait () =
        match Unix.waitpid [] pid with
        | _, status -> status = Unix.WEXITED 0
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      if wait () then v else None

(* ------------------------------------------------------------------ *)
(* Timed passes                                                        *)
(* ------------------------------------------------------------------ *)

type pass = {
  lat_ns : int array;
  kinds : string array;
  writes : bool array;
  failed : int;
  failures : (int * string) list;  (** first few: op index, reason *)
  alloc_words : int;
  minor_gcs : int;
  major_gcs : int;
}

let alloc_words (s : Gc.stat) =
  int_of_float (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)

(* Run operations [0, n) one after another: time the request, then check
   its response.  Exceptions (Overloaded rejections included) and wrong
   responses are failures; nothing is filtered out. *)
let timed_pass ~n ~is_write ~static_kind ~stage request =
  let lat_ns = Array.make n 0 and kinds = Array.make n "" in
  let writes = Array.init n is_write in
  let failed = ref 0 and failures = ref [] in
  let fail i why =
    incr failed;
    if List.length !failures < 5 then failures := (i, why) :: !failures
  in
  (* The runtime's word counters are exact only with the minor heap
     empty: otherwise about half a minor heap is counted at a moment that
     depends on timing. *)
  Gc.minor ();
  let gc0 = Gc.quick_stat () in
  for i = 0 to n - 1 do
    stage i;
    let t0 = Bclock.now_ns () in
    let r = try Ok (request i) with e -> Error e in
    lat_ns.(i) <- Bclock.now_ns () - t0;
    match r with
    | Error e ->
        kinds.(i) <- static_kind i;
        fail i (Printexc.to_string e)
    | Ok o -> (
        kinds.(i) <- o.kind;
        match o.check () with
        | true -> ()
        | false -> fail i ("wrong response (" ^ o.kind ^ ")")
        | exception e -> fail i ("check raised " ^ Printexc.to_string e))
  done;
  Gc.minor ();
  let gc1 = Gc.quick_stat () in
  {
    lat_ns;
    kinds;
    writes;
    failed = !failed;
    failures = List.rev !failures;
    alloc_words = alloc_words gc1 - alloc_words gc0;
    minor_gcs = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

let lat_ms p sel =
  let acc = ref [] in
  Array.iteri (fun i ns -> if sel i then acc := Bclock.ms_of_ns ns :: !acc) p.lat_ns;
  Array.of_list !acc

let reads p = lat_ms p (fun i -> not p.writes.(i))
let writes p = lat_ms p (fun i -> p.writes.(i))
let by_kind p k = lat_ms p (fun i -> p.kinds.(i) = k)

(* Throughput of the closed loop: completed requests over the time the
   client spent waiting on them (its own response checks excluded). *)
let ops_per_s p =
  let total = Array.fold_left ( + ) 0 p.lat_ns in
  float_of_int (Array.length p.lat_ns - p.failed) /. Bclock.s_of_ns total

(* Throughput of each of [w] consecutive equal slices of the pass. *)
let window_rates ?(w = 20) p =
  let n = Array.length p.lat_ns in
  let size = max 1 (n / w) in
  Array.init (n / size) (fun k ->
      let ns = ref 0 in
      for i = k * size to ((k + 1) * size) - 1 do
        ns := !ns + p.lat_ns.(i)
      done;
      float_of_int size /. Bclock.s_of_ns !ns)

let kinds_of p = List.sort_uniq compare (Array.to_list p.kinds)

let count_kind p k = Array.fold_left (fun n x -> if x = k then n + 1 else n) 0 p.kinds

let print_kinds p =
  let n = Array.length p.lat_ns in
  List.iter
    (fun k ->
      let l = by_kind p k in
      Printf.printf "  kind %-18s n=%-7d share=%6.3f  p50=%9.4f ms  p99=%9.4f ms\n" k
        (Array.length l)
        (float_of_int (Array.length l) /. float_of_int n)
        (Pct.percentile l 0.5) (Pct.percentile l 0.99))
    (kinds_of p)

(* Whether a reported percentile sits on a boundary between request
   kinds of different cost: the latency 2% of the samples below and
   above it (half the tail beyond it for p99), and the kinds found
   there.  A wide gap (over 1.5x) means the percentile falls in a sparse
   stretch between two modes, where a small change in the mix moves it a
   long way. *)
let boundary_note p ~label sel q =
  let idx = ref [] in
  Array.iteri (fun i ns -> if sel i then idx := (ns, p.kinds.(i)) :: !idx) p.lat_ns;
  let a = Array.of_list !idx in
  Array.sort compare a;
  let n = Array.length a in
  if n > 0 then begin
    let at f = a.(max 0 (min (n - 1) (int_of_float (f *. float_of_int n)))) in
    let w = Float.min 0.02 ((1.0 -. q) /. 2.0) in
    let (lo, klo), (hi, khi) = (at (q -. w), at (q +. w)) in
    let gap = float_of_int hi /. float_of_int (max 1 lo) in
    Printf.printf "  %s: %.4f ms (%s) at -%.1f%%, %.4f ms (%s) at +%.1f%%, gap %.2fx%s\n" label
      (Bclock.ms_of_ns lo) klo (100. *. w) (Bclock.ms_of_ns hi) khi (100. *. w) gap
      (if gap > 1.5 then "  <- on a mode boundary" else "")
  end
