(* Repository benchmark driver.

     main.exe --workload <report|lookup|read_write|docs> --seed <n>
              --seconds <s> --trace <0|1>

   Inputs come from the seed; the operation count is fixed per workload
   and scaled by [--seconds] only, so every run of one seed does
   identical work.  With [--trace 0] the run sets the system up several
   times (median [setup_s]), then runs one timed, checked pass and prints
   the end-to-end metrics.  With [--trace 1] it runs the first half of
   the same script twice, untraced and then traced layer by layer, and
   prints the per-layer metrics.  The last line of output is one JSON
   object: correct, attempted, failed, metrics.

   Counts that must repeat bit-for-bit on one seed are stored under
   [.perfbench/] and compared with the previous run of the same seed by
   the same build of the program; a difference marks the run incorrect. *)

module H = Harness
module EN = Xdb_core.Engine
module SV = Xdb_core.Server
module Pct = Perfbench.Pct
module Spans = Perfbench.Spans
module Bclock = Perfbench.Bclock

(* timed set-ups per run (median reported): more where one set-up is
   short *)
let setup_repeats = function "read_write" -> 51 | "report" -> 21 | _ -> 11
let state_dir = ".perfbench"

(* operations per second of [--seconds], and the floor that keeps at
   least 1000 reads (or writes) in every run *)
let per_second = function
  | "report" -> 100
  | "lookup" -> 9_000
  | "read_write" -> 1_500
  | "docs" -> 250
  | w -> failwith ("unknown workload " ^ w)

let min_ops = function "report" -> 1_000 | "read_write" -> 10_000 | _ -> 2_000

let make name ~seed ~ops =
  match name with
  | "report" -> Report.make ~ops
  | "lookup" -> Lookup.make ~seed ~ops
  | "read_write" -> Read_write.make ~seed ~ops
  | "docs" -> Docs.make ~seed ~ops
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ms =
  String.concat ","
    (List.map
       (fun (name, unit, v) -> Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (num v) unit)
       ms)

let print_result ~correct ~attempted ~failed ms =
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct attempted
    failed (metrics_json ms);
  print_newline ()

let print_metrics ms = List.iter (fun (n, u, v) -> Printf.printf "  %-28s %14.6f %s\n" n v u) ms

(* ------------------------------------------------------------------ *)
(* Exact counts                                                        *)
(* ------------------------------------------------------------------ *)

(* The counts that must repeat on one seed, with their tolerance: 0 for
   bit-for-bit, or a relative one.  Words allocated get 1e-4: a little
   of the program's allocation depends on timing (report moved by up to
   31k of 3.8e9 words between identical runs, in steps of 1954 words on
   single requests), while an unseeded input also moves the exact cache
   and B-tree counters.  The top of the heap
   and the collection counts are not compared: on the OCaml 5.1 runtime
   they move between identical runs (read_write's heap top by up to 9%). *)
let exact_counts (inst : H.instance) ~(alloc : H.pass) (p : H.pass) =
  let exact l = List.map (fun (k, v) -> (k, v, 0.0)) l in
  let prefixed pre l = List.map (fun (k, v) -> (pre ^ k, v)) l in
  let trees = Load.indexes (EN.database inst.H.engine) in
  let sum f = List.fold_left (fun a (_, t) -> a + f t) 0 trees in
  let shred =
    if inst.H.shredded then
      let st = EN.shred_store inst.H.engine in
      let c = Xdb_rel.Shred.counters st in
      [
        ("shred.batch_steps", c.Xdb_rel.Shred.batch_steps);
        ("shred.rel_steps", c.Xdb_rel.Shred.rel_steps);
        ("shred.dom_fallbacks", c.Xdb_rel.Shred.dom_fallbacks);
        ("shred.node_rows", snd (Xdb_rel.Shred.stats st));
      ]
    else []
  in
  exact
    (List.map (fun k -> ("ops." ^ k, H.count_kind p k)) (H.kinds_of p)
    @ prefixed "registry." (EN.registry_counters inst.H.engine)
    @ prefixed "result_cache." (EN.result_cache_counters inst.H.engine)
    @ [
        ("btree.probes", sum Xdb_rel.Btree.probes);
        ("btree.node_visits", sum Xdb_rel.Btree.node_visits);
        ("btree.size", sum Xdb_rel.Btree.size);
      ]
    @ shred
    @ [ ("failed", p.H.failed) ])
  @ [ ("gc.alloc_words", alloc.H.alloc_words, 1e-4) ]

let within (_, v, tol) v' =
  if tol = 0.0 then v = v'
  else Float.abs (float_of_int (v - v')) <= tol *. float_of_int (max (abs v) 1)

(* Compare with the previous run of the same seed and settings, then
   store this run's counts.  Returns false on any difference. *)
let check_determinism ~key counts =
  (try Sys.mkdir state_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat state_dir (key ^ ".counts") in
  let previous =
    if Sys.file_exists path then begin
      let ic = open_in path in
      let rec read acc =
        match input_line ic with
        | line -> (
            match String.split_on_char ' ' line with
            | [ k; v ] -> read ((k, int_of_string v) :: acc)
            | _ -> read acc)
        | exception End_of_file -> List.rev acc
      in
      let l = read [] in
      close_in ic;
      Some l
    end
    else None
  in
  let oc = open_out path in
  List.iter (fun (k, v, _) -> Printf.fprintf oc "%s %d\n" k v) counts;
  close_out oc;
  match previous with
  | None ->
      Printf.printf "exact counts: first run of %s, %d counts stored\n" key (List.length counts);
      true
  | Some prev ->
      let differ =
        List.filter
          (fun ((k, _, _) as c) ->
            match List.assoc_opt k prev with Some v' -> not (within c v') | None -> true)
          counts
        @ List.filter_map
            (fun (k, v') ->
              if List.exists (fun (k', _, _) -> k' = k) counts then None else Some (k, v', 0.0))
            prev
      in
      if differ = [] then begin
        Printf.printf "exact counts: all %d repeat the previous run of %s\n" (List.length counts) key;
        true
      end
      else begin
        Printf.printf "exact counts: DIFFER from the previous run of %s\n" key;
        List.iter
          (fun (k, v, _) ->
            let now = List.find_opt (fun (k', _, _) -> k' = k) counts in
            Printf.printf "  %s: previous %s, now %s\n" k
              (match List.assoc_opt k prev with Some v' -> string_of_int v' | None -> "-")
              (match now with Some (_, v, _) -> string_of_int v | None -> ignore v; "-"))
          differ;
        false
      end

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let pass_of (inst : H.instance) ~n request =
  H.timed_pass ~n ~is_write:inst.H.is_write ~static_kind:inst.H.static_kind ~stage:inst.H.stage
    request

let report_failures (p : H.pass) =
  List.iter (fun (i, why) -> Printf.printf "  failure at op %d: %s\n" i why) p.H.failures

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let summary (p : H.pass) =
  let n = Array.length p.H.lat_ns in
  Printf.printf "ops %d (reads %d, writes %d), failed %d, error_rate %.6f\n" n
    (Array.length (H.reads p)) (Array.length (H.writes p)) p.H.failed
    (float_of_int p.H.failed /. float_of_int n);
  report_failures p;
  let wr = H.window_rates p in
  Printf.printf "ops/s by twentieths of the pass: min %.1f median %.1f max %.1f\n  %s\n"
    (Array.fold_left Float.min infinity wr) (Pct.median wr) (Array.fold_left Float.max 0.0 wr)
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") wr)));
  H.print_kinds p;
  let not_w i = not p.H.writes.(i) and is_w i = p.H.writes.(i) in
  H.boundary_note p ~label:"read_p50" not_w 0.5;
  H.boundary_note p ~label:"read_p99" not_w 0.99;
  if Array.length (H.writes p) > 0 then begin
    H.boundary_note p ~label:"write_p50" is_w 0.5;
    H.boundary_note p ~label:"write_p99" is_w 0.99
  end

let plain_run (wl : H.workload) ~key =
  (* The process's first set-up also grows the heap from the OS.  It is
     not timed, so that every timed one starts from the same warm heap;
     the last timed one serves the pass.  Set-ups are deterministic, so
     the oracle takes its reference from the first one: a forked oracle
     leaves the parent's heap pages copy-on-write, and the first write to
     each then faults, which falls on the set-ups, not on the pass. *)
  let warm = wl.H.setup () in
  let (), oracle_ns = Bclock.time (fun () -> wl.H.oracle warm) in
  let heap_oracle = heap_mb () in
  let setup_s = ref [] and last = ref None in
  for _ = 1 to setup_repeats wl.H.name do
    last := None;
    Gc.compact ();
    let i, ns = Bclock.time wl.H.setup in
    setup_s := Bclock.s_of_ns ns :: !setup_s;
    last := Some i
  done;
  let inst = Option.get !last in
  let heap0 = heap_mb () in
  let p, pass_ns = Bclock.time (fun () -> pass_of inst ~n:wl.H.ops inst.H.run) in
  let reads = H.reads p and writes = H.writes p in
  let n = Array.length p.H.lat_ns in
  Printf.printf "workload %s: %s; closed loop, 1 client, jobs = 1\n" wl.H.name wl.H.sizes;
  Printf.printf
    "peak heap after the oracle %.1f MB, after the set-ups %.1f MB; oracle %.3f s; pass %.3f s \
     with checks\n"
    heap_oracle heap0 (Bclock.s_of_ns oracle_ns) (Bclock.s_of_ns pass_ns);
  summary p;
  if Array.length writes > 0 then
    Printf.printf "  write_p50_ms %.6f  write_p99_ms %.6f  (%d writes, %d beyond p99)\n"
      (Pct.percentile writes 0.5) (Pct.percentile writes 0.99) (Array.length writes)
      (Pct.beyond (Array.length writes) 0.99);
  (* read_p50_ms is printed, not reported: this host switches between
     a fast and a slow state every few seconds, reads of one run mix
     both, and their median jumps between the two (see design.json) *)
  Printf.printf "  read_p50_ms %.6f  read_p99_ms %.6f  (%d reads, %d beyond p99)\n"
    (Pct.percentile reads 0.5) (Pct.percentile reads 0.99) (Array.length reads)
    (Pct.beyond (Array.length reads) 0.99);
  Printf.printf "gc: %d minor, %d major collections in the pass\n" p.H.minor_gcs p.H.major_gcs;
  let counts = exact_counts inst ~alloc:p p and peak = heap_mb () in
  Printf.printf "setup runs (s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setup_s));
  let metrics =
    [
      ("setup_s", "s", Pct.median (Array.of_list !setup_s));
      ("ops_per_s", "ops/s", H.ops_per_s p);
      ("read_p99_ms", "ms", Pct.percentile reads 0.99);
      ("peak_heap_mb", "MB", peak);
      ("ok_rate", "fraction", float_of_int (n - p.H.failed) /. float_of_int n);
    ]
  in
  print_metrics metrics;
  let same = check_determinism ~key counts in
  print_result ~correct:(p.H.failed = 0 && same) ~attempted:n ~failed:p.H.failed metrics

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let span_ms (spans : Spans.span list) name =
  Array.of_list
    (List.filter_map
       (fun (s : Spans.span) ->
         if s.Spans.name = name then Some (Bclock.ms_of_ns (Spans.duration s)) else None)
       spans)

let med a = if Array.length a = 0 then 0.0 else Pct.median a
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per a b = if b = 0 then 0.0 else a /. float_of_int b

let server_totals server =
  let s = SV.snapshot server in
  let tot (x : SV.summary) = float_of_int x.SV.count *. x.SV.mean_ms in
  (s.SV.service.SV.count, tot s.SV.queue_wait, tot s.SV.service)

let per_layer (inst : H.instance) (l : H.layers) (p : H.pass) ~(base : H.pass) ~rc0 ~shred0 ~srv0 =
  let n = Array.length p.H.lat_ns in
  let stages = Xdb_core.Metrics.stages l.H.metrics in
  let counters = Xdb_core.Metrics.counters l.H.metrics in
  let stage s = try List.assoc s stages with Not_found -> 0.0 in
  let opt =
    List.fold_left
      (fun a (k, v) -> if String.starts_with ~prefix:"opt_" k then a +. v else a)
      0.0 stages
  in
  let spans = Spans.spans l.H.spans in
  let rc1 = EN.result_cache_counters inst.H.engine in
  let rc k = H.counter ("result_cache_" ^ k) rc1 - H.counter ("result_cache_" ^ k) rc0 in
  let hits = rc "hits" and misses = rc "misses" in
  let trees = Load.indexes (EN.database inst.H.engine) in
  let over_trees op f = float_of_int (List.fold_left (fun a (_, t) -> op a (f t)) 0 trees) in
  let shred1, nodes =
    if inst.H.shredded then
      let st = EN.shred_store inst.H.engine in
      (Some (Xdb_rel.Shred.counters st), snd (Xdb_rel.Shred.stats st))
    else (None, 0)
  in
  let sh f = match (shred0, shred1) with Some a, Some b -> f b - f a | _ -> 0 in
  let count0, wait0, service0 = srv0 and count1, wait1, service1 = server_totals inst.H.server in
  let served = count1 - count0 in
  let client_ms = Array.fold_left (fun a ns -> a +. Bclock.ms_of_ns ns) 0.0 p.H.lat_ns in
  let parse = span_ms spans "xml.parse" in
  let transforms =
    Array.fold_left
      (fun a k -> if String.starts_with ~prefix:"transform." k then a + 1 else a)
      0 p.H.kinds
  in
  let statements = l.H.analyzed and fn = float_of_int n in
  let self k = per (try Hashtbl.find l.H.op_self k with Not_found -> 0.0) statements in
  [
    ("registry.hit_ratio", "ratio", ratio l.H.reg_hits l.H.reg_lookups);
    ("compile.parse_ms", "ms", stage "parse" /. fn);
    ("compile.bytecode_ms", "ms", stage "bytecode" /. fn);
    ("compile.schema_ms", "ms", stage "schema" /. fn);
    ("compile.translate_ms", "ms", stage "translate" /. fn);
    ("compile.sql_rewrite_ms", "ms", stage "sql_rewrite" /. fn);
    ("compile.optimize_ms", "ms", opt /. fn);
    ("exec.sql_exec_ms", "ms", stage "sql_exec" /. fn);
    ("exec.rows", "count", per (float_of_int l.H.exec_rows) statements);
    ("exec.heap_rows", "count", per (float_of_int l.H.heap_rows) statements);
    ("exec.btree_probes", "count", per (float_of_int l.H.btree_probes) statements);
    ("exec.btree_nodes", "count", per (float_of_int l.H.btree_nodes) statements);
    ("exec.scan_self_ms", "ms", self "scan");
    ("exec.filter_self_ms", "ms", self "filter");
    ("exec.project_self_ms", "ms", self "project");
    ("exec.aggregate_self_ms", "ms", self "aggregate");
    ("exec.join_self_ms", "ms", self "join");
    ("exec.sort_self_ms", "ms", self "sort");
    ("result_cache.hit_ratio", "ratio", ratio hits (hits + misses));
    ("result_cache.invalidations", "count", float_of_int (rc "invalidations"));
    ("result_cache.evictions", "count", float_of_int (rc "evictions"));
    ("result_cache.hit_ms", "ms", med (H.by_kind p "hit"));
    ("result_cache.miss_ms", "ms", med (H.by_kind p "miss"));
    ("sql.update_ms", "ms", med (span_ms spans "sql.update"));
    ("sql.insert_ms", "ms", med (span_ms spans "sql.insert"));
    ("sql.delete_ms", "ms", med (span_ms spans "sql.delete"));
    ("btree.height", "count", over_trees max Xdb_rel.Btree.height);
    ("btree.size", "count", over_trees ( + ) Xdb_rel.Btree.size);
    ("xml.parse_ms", "ms", med parse);
    ( "xml.parse_mb_per_s", "MB/s",
      let ms = Array.fold_left ( +. ) 0.0 parse in
      if ms = 0.0 then 0.0 else float_of_int l.H.parsed_bytes /. 1e6 /. (ms /. 1000.0) );
    ("shred.store_ms", "ms", med (span_ms spans "shred.store"));
    ("shred.node_rows", "count", float_of_int nodes);
    ("shred.batch_steps", "count", per (float_of_int (sh (fun c -> c.Xdb_rel.Shred.batch_steps))) n);
    ("shred.rel_steps", "count", per (float_of_int (sh (fun c -> c.Xdb_rel.Shred.rel_steps))) n);
    ("shred.dom_fallbacks", "count", per (float_of_int (sh (fun c -> c.Xdb_rel.Shred.dom_fallbacks))) n);
    ("xpath.query_ms", "ms", med (span_ms spans "xpath.query"));
    ("shred_vm.ms", "ms", per (stage "shred_vm") transforms);
    ("shred_vm.fallback_docs", "count", float_of_int (H.counter "shred_vm_fallback_docs" counters));
    ("server.queue_wait_ms", "ms", per (wait1 -. wait0) served);
    ("server.service_ms", "ms", per (service1 -. service0) served);
    ("server.overhead_ms", "ms", per client_ms n -. per (service1 -. service0) served);
    ( "gc.alloc_kb_per_op",
      "KB",
      float_of_int (base.H.alloc_words * (Sys.word_size / 8)) /. 1024.0 /. fn );
    ("gc.minor_per_op", "count", per (float_of_int base.H.minor_gcs) n);
    ("gc.major_per_kop", "count", per (1000.0 *. float_of_int base.H.major_gcs) n);
    ("trace.overhead_ratio", "ratio", H.ops_per_s base /. H.ops_per_s p);
  ]

(* Exact counts of the traced pass: the executor's counters join the
   untraced set. *)
let traced_counts (l : H.layers) =
  [
    ("exec.statements", l.H.analyzed);
    ("exec.rows", l.H.exec_rows);
    ("exec.heap_rows", l.H.heap_rows);
    ("exec.btree_probes", l.H.btree_probes);
    ("exec.btree_nodes", l.H.btree_nodes);
    ("registry.traced_lookups", l.H.reg_lookups);
    ("registry.traced_hits", l.H.reg_hits);
  ]

let write_spans ~key spans =
  (try Sys.mkdir state_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat state_dir (key ^ ".spans.jsonl") in
  let oc = open_out path in
  List.iter (fun s -> output_string oc (Spans.to_json s ^ "\n")) spans;
  close_out oc;
  path

let traced_run (wl : H.workload) ~key =
  let n = wl.H.ops in
  (* untraced baseline over the same operations *)
  let base_inst = wl.H.setup () in
  wl.H.oracle base_inst;
  let base = pass_of base_inst ~n base_inst.H.run in
  Printf.printf "workload %s (traced run): %s; closed loop, 1 client, jobs = 1\n" wl.H.name wl.H.sizes;
  Printf.printf "untraced pass:\n";
  summary base;
  Gc.compact ();
  let inst = wl.H.setup () in
  wl.H.oracle inst;
  let l = H.fresh_layers () in
  let rc0 = EN.result_cache_counters inst.H.engine in
  let shred0 =
    if inst.H.shredded then Some (Xdb_rel.Shred.counters (EN.shred_store inst.H.engine)) else None
  in
  let srv0 = server_totals inst.H.server in
  let p =
    pass_of inst ~n (fun i ->
        Spans.set_request l.H.spans i;
        inst.H.traced l i)
  in
  Printf.printf "traced pass:\n";
  summary p;
  let spans = Spans.spans l.H.spans in
  Printf.printf "spans by name: count, p50 and p99 of the duration, total self time (ms)\n";
  List.iter
    (fun (name, ns) ->
      let d = span_ms spans name in
      Printf.printf "  %-22s n=%-7d p50=%10.4f  p99=%10.4f  self=%12.3f\n" name (Array.length d)
        (med d) (Pct.percentile d 0.99) (Bclock.ms_of_ns ns))
    (Spans.self_by_name spans);
  Printf.printf "spans written to %s\n" (write_spans ~key spans);
  List.iter
    (fun (name, t) ->
      Printf.printf "  btree %-34s height %d size %d\n" name (Xdb_rel.Btree.height t)
        (Xdb_rel.Btree.size t))
    (Load.indexes (EN.database inst.H.engine));
  Printf.printf "tracing overhead: untraced %.2f ops/s, traced %.2f ops/s\n" (H.ops_per_s base)
    (H.ops_per_s p);
  let layers = per_layer inst l p ~base ~rc0 ~shred0 ~srv0 in
  print_metrics layers;
  let same =
    check_determinism ~key
      (exact_counts inst ~alloc:base p @ List.map (fun (k, v) -> (k, v, 0.0)) (traced_counts l))
  in
  let failed = base.H.failed + p.H.failed in
  print_result ~correct:(failed = 0 && same) ~attempted:(2 * n) ~failed layers

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "report | lookup | read_write | docs");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "nominal run length; scales the fixed operation count");
      ("--trace", Arg.Set_int trace, "1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let w = !workload in
  let ops = max (min_ops w) (per_second w * !seconds) in
  let ops = if !trace = 1 then ops / 2 else ops in
  (* the build of the program is part of the key: only runs of one build
     must repeat each other's counts *)
  let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let key = Printf.sprintf "%s-seed%d-ops%d-trace%d-%s" w !seed ops !trace build in
  let wl = make w ~seed:!seed ~ops in
  if !trace = 1 then traced_run wl ~key else plain_run wl ~key
