(* report: one request renders the paper's Fig. 3 report set (avts,
   metric, chart, total) back to back over the records and sales views
   of one database, result cache off, so every request pays the full
   SQL/XML rewrite execution.  Plans are compiled during set-up. *)

module H = Harness
module EN = Xdb_core.Engine
module SV = Xdb_core.Server
module D = Xdb_xsltmark.Data

let records_rows = 8_000
let regions = 400
let items = 20
let cases =
  [ ("avts", "records_vu"); ("metric", "records_vu"); ("chart", "sales_vu"); ("total", "sales_vu") ]
let stylesheet name = (Option.get (Xdb_xsltmark.Cases.find name)).Xdb_xsltmark.Cases.stylesheet
let nocache = { EN.default_run_options with EN.result_cache = false }

let make ~ops : H.workload =
  let cases = List.map (fun (c, v) -> (c, v, stylesheet c)) cases in
  let expected = ref [] in
  let check out () = out = !expected in
  let setup () =
    let records = D.records_db records_rows and sales = D.sales_db regions items in
    Load.merge ~into:records.D.db sales.D.db;
    let views = [ ("records_vu", records.D.view); ("sales_vu", sales.D.view) ] in
    let engine, server, session =
      Load.serve ~views:(List.map snd views) ~options:nocache records.D.db
    in
    let page () =
      List.map
        (fun (_, view_name, stylesheet) -> (SV.transform session ~view_name ~stylesheet).EN.output)
        cases
    in
    ignore (page ());
    let run _ =
      let out = page () in
      { H.kind = "page"; check = check out }
    in
    let traced l i =
      let out =
        H.span l "request" (fun () ->
            SV.submit session (fun engine ->
                List.map
                  (fun (c, view_name, stylesheet) ->
                    H.span l ("case." ^ c) (fun () ->
                        let stmt = H.prepare l engine ~view_name ~stylesheet in
                        fst (H.transform l engine ~options:nocache stmt)))
                  cases))
      in
      (* operator breakdown of one request in ten, untimed *)
      let analyze () =
        if i mod 10 = 0 then
          List.iter
            (fun (_, view_name, stylesheet) ->
              H.analyze l engine (List.assoc view_name views) stylesheet)
            cases
      in
      H.untimed analyze { H.kind = "page"; check = check out }
    in
    {
      H.engine;
      server;
      stage = H.no_stage;
      run;
      traced;
      is_write = (fun _ -> false);
      static_kind = (fun _ -> "page");
      shredded = false;
    }
  in
  (* reference: the functional DOM run of every case, computed once in a
     child process so that its document-sized heap stays out of
     [peak_heap_mb]; if it fails, every response counts as wrong *)
  let oracle (inst : H.instance) =
    let interp = { nocache with EN.interpreted = true } in
    expected :=
      Option.value ~default:[]
        (H.in_child (fun () ->
             List.map
               (fun (_, view_name, stylesheet) ->
                 (EN.transform ~options:interp inst.H.engine ~view_name ~stylesheet).EN.output)
               cases))
  in
  {
    H.name = "report";
    ops;
    setup;
    oracle;
    sizes =
      Printf.sprintf "records %d rows, sales %d regions x %d items, 1 document per view"
        records_rows regions items;
  }
