(* The system's own set-up calls: base tables generated and indexed by
   [Xdb_xsltmark.Data], views registered, ANALYZE, one server and one
   client session.  Everything here is timed as [setup_s]. *)

module T = Xdb_rel.Table
module DB = Xdb_rel.Database
module EN = Xdb_core.Engine
module SV = Xdb_core.Server

(* Copy [src]'s tables, rows and indexes into [into]: how one database
   holds the tables of two of Data's views.  Rows are inserted before
   the indexes are built, as Data builds them. *)
let merge ~into src =
  List.iter
    (fun name ->
      let t = DB.table src name in
      let copy = DB.create_table into name (Array.to_list t.T.columns) in
      T.iter (fun _ row -> ignore (T.insert copy (Array.copy row))) t;
      List.iter
        (fun (ix : T.index) ->
          ignore (T.create_index copy ~name:ix.T.idx_name ~column:ix.T.idx_column))
        t.T.indexes)
    (DB.table_names src)

(* One engine and server over [db] with [views] registered and analysed,
   and the single client session the workload drives. *)
let serve ?(views = []) ~options db =
  let engine = EN.create db in
  List.iter (EN.register_view engine) views;
  ignore (EN.execute engine "ANALYZE");
  let server = SV.create engine in
  (engine, server, SV.open_session ~name:"client" ~options server)

(* Every secondary index of the database: (table.index, tree). *)
let indexes db =
  List.concat_map
    (fun name ->
      List.map
        (fun (ix : T.index) -> (name ^ "." ^ ix.T.idx_name, ix.T.tree))
        (DB.table db name).T.indexes)
    (List.sort compare (DB.table_names db))
