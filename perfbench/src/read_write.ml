(* read_write: cached avts reads beside DML on a 2k-row records view,
   result cache on.  9 in 10 operations read; writes are 70% UPDATE
   (alternating the rendered name column and the unrendered value
   column), 15% INSERT and 15% DELETE.  The only workload where result
   cache hits, misses and invalidations, DML and B-tree maintenance do
   the work. *)

module H = Harness
module EN = Xdb_core.Engine
module SV = Xdb_core.Server
module Gen = Perfbench.Gen
module V = Xdb_rel.Value
module D = Xdb_xsltmark.Data

let rows = 2_000
let view_name = "records_vu"
let stylesheet = Report.stylesheet "avts"
let nocache = { EN.default_run_options with EN.result_cache = false }

let statement = function
  | Gen.Read -> ""
  | Gen.Update_name (id, name) -> Printf.sprintf "UPDATE rows SET name = '%s' WHERE id = %d" name id
  | Gen.Update_value (id, v) -> Printf.sprintf "UPDATE rows SET value = %d WHERE id = %d" v id
  | Gen.Insert r ->
      Printf.sprintf "INSERT INTO rows VALUES (1, %d, '%s', %d, '%s')" r.Gen.id r.Gen.name
        r.Gen.value r.Gen.category
  | Gen.Delete id -> Printf.sprintf "DELETE FROM rows WHERE id = %d" id

let make ~seed ~ops : H.workload =
  let script = Gen.rw_ops (Gen.rng seed 5) ~rows ops in
  let current = ref "" in
  let setup () =
    let records = D.records_db rows in
    let view = records.D.view in
    let engine, server, session =
      Load.serve ~views:[ view ] ~options:EN.default_run_options records.D.db
    in
    ignore (SV.transform session ~view_name ~stylesheet);
    (* oracle: a cache-off recompute for every read.  The output is a
       function of the table contents, which only this client's writes
       change, so the recompute is redone after each write and reused by
       the reads until the next one. *)
    let reference = ref None in
    let recomputed () =
      match !reference with
      | Some out -> out
      | None ->
          let out = (EN.transform ~options:nocache engine ~view_name ~stylesheet).EN.output in
          reference := Some out;
          out
    in
    let read_check out () = out = recomputed () in
    let write_check (r : Xdb_sql.Engine.result) () = r.Xdb_sql.Engine.rows = [ [ V.Int 1 ] ] in
    let stage i =
      current := statement script.(i);
      (* any write attempt, failed ones included, retires the reference *)
      if script.(i) <> Gen.Read then reference := None
    in
    let run i =
      match script.(i) with
      | Gen.Read ->
          let hits0 = H.rc_hits engine in
          let out = (SV.transform session ~view_name ~stylesheet).EN.output in
          { H.kind = H.cache_kind engine hits0; check = read_check out }
      | op -> { H.kind = Gen.rw_kind op; check = write_check (SV.execute session !current) }
    in
    let misses = ref 0 in
    let traced l i =
      let o =
        H.span l "request" (fun () ->
            SV.submit session (fun engine ->
                match script.(i) with
                | Gen.Read ->
                    let stmt = H.prepare l engine ~view_name ~stylesheet in
                    let out, hit = H.transform l engine ~options:EN.default_run_options stmt in
                    { H.kind = (if hit then "hit" else "miss"); check = read_check out }
                | op ->
                    let kind = Gen.rw_kind op in
                    let r = H.span l ("sql." ^ kind) (fun () -> EN.execute engine !current) in
                    { H.kind; check = write_check r }))
      in
      (* operator breakdown of one miss in five, untimed *)
      if o.H.kind <> "miss" then o
      else begin
        incr misses;
        if !misses mod 5 <> 1 then o
        else H.untimed (fun () -> H.analyze l engine view stylesheet) o
      end
    in
    let is_write i = script.(i) <> Gen.Read in
    {
      H.engine;
      server;
      stage;
      run;
      traced;
      is_write;
      static_kind = (fun i -> Gen.rw_kind script.(i));
      shredded = false;
    }
  in
  {
    H.name = "read_write";
    ops;
    setup;
    oracle = (fun _ -> ());
    sizes = Printf.sprintf "records %d rows (kept stable), 1 document" rows;
  }
