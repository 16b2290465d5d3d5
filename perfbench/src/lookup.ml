(* lookup: Fig. 2 dbonerow point lookups over a 100k-row records view.
   Keys are uniform by seed and every key has its own stylesheet text,
   so nearly every request misses the plan registry and the result
   cache: a full compile, then one B-tree probe. *)

module H = Harness
module EN = Xdb_core.Engine
module SV = Xdb_core.Server
module Gen = Perfbench.Gen
module Cases = Xdb_xsltmark.Cases
module D = Xdb_xsltmark.Data
module V = Xdb_rel.Value

let rows = 100_000
let view_name = "records_vu"
let nocache = { EN.default_run_options with EN.result_cache = false }

(* keys whose expected output is also checked against the functional
   DOM run (one full-document run each, in a child process so that its
   document-sized heap stays out of [peak_heap_mb]) *)
let functional_samples = 2

let make ~seed ~ops : H.workload =
  let keys = Gen.keys (Gen.rng seed 3) ~n:rows ops in
  (* the one matching row of every id, rendered as dbonerow's template
     renders it; the oracle reads the rows back from a loaded base table,
     with no XSLT, XQuery or SQL on the way *)
  let rendered = ref [||] in
  let expected k = !rendered.(k) in
  let sample_ok = ref true in
  let current = ref "" in
  let setup () =
    let records = D.records_db rows in
    let engine, server, session =
      Load.serve ~views:[ records.D.view ] ~options:EN.default_run_options records.D.db
    in
    ignore (SV.transform session ~view_name ~stylesheet:(Cases.dbonerow_stylesheet 1));
    let stage i = current := Cases.dbonerow_stylesheet keys.(i) in
    let check i out () =
      !sample_ok
      && out = expected keys.(i)
      && out = (EN.transform ~options:nocache engine ~view_name ~stylesheet:!current).EN.output
    in
    let run i =
      let hits0 = H.rc_hits engine in
      let out = (SV.transform session ~view_name ~stylesheet:!current).EN.output in
      { H.kind = H.cache_kind engine hits0; check = check i out }
    in
    let traced l i =
      let out, hit =
        H.span l "request" (fun () ->
            SV.submit session (fun engine ->
                let stmt = H.prepare l engine ~view_name ~stylesheet:!current in
                H.transform l engine ~options:EN.default_run_options stmt))
      in
      let stylesheet = !current in
      let analyze () = if i mod 50 = 0 then H.analyze l engine records.D.view stylesheet in
      H.untimed analyze { H.kind = (if hit then "hit" else "miss"); check = check i out }
    in
    {
      H.engine;
      server;
      stage;
      run;
      traced;
      is_write = (fun _ -> false);
      static_kind = (fun _ -> "lookup");
      shredded = false;
    }
  in
  (* the functional DOM run on a seeded sample of keys must agree with the
     rendering [expected] checks every request against *)
  let oracle (inst : H.instance) =
    let table = Xdb_rel.Database.table (EN.database inst.H.engine) "rows" in
    rendered := Array.make (rows + 1) [];
    Xdb_rel.Table.iter
      (fun _ row ->
        match row with
        | [| _; V.Int id; V.Str name; V.Int value; _ |] ->
            !rendered.(id) <- [ Printf.sprintf "<out><hit>%s = %d</hit></out>" name value ]
        | _ -> ())
      table;
    let interp = { nocache with EN.interpreted = true } in
    sample_ok :=
      H.in_child (fun () ->
          List.for_all
            (fun j ->
              let k = keys.(j * (Array.length keys / functional_samples)) in
              (EN.transform ~options:interp inst.H.engine ~view_name
                 ~stylesheet:(Cases.dbonerow_stylesheet k))
                .EN.output
              = expected k)
            (List.init functional_samples Fun.id))
      = Some true
  in
  { H.name = "lookup"; ops; setup; oracle; sizes = Printf.sprintf "records %d rows, 1 document" rows }
