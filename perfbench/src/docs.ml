(* docs: stored documents in shredded storage.  Set-up parses and shreds
   a seeded corpus of records-shape documents.  Reads transform one
   document through the shredded XSLT VM (result cache off) or run an
   XPath query over it by relational axis scans; writes ingest a new
   document (XML parse, then store_shredded).  The only workload where
   the XML parser, Shred and Shred_vm do the work. *)

module H = Harness
module EN = Xdb_core.Engine
module SV = Xdb_core.Server
module Gen = Perfbench.Gen
module SH = Xdb_rel.Shred
module X = Xdb_xml.Types

let corpus = 16
let rows_lo = 50
let rows_hi = 500

(* Ingested documents are smaller than the corpus: every ingest stays in
   the store, and at 50-500 rows the heap would grow by about 2.5 MB per
   ingest. *)
let ingest_lo = 10
let ingest_hi = 100
let styles = [| "avts"; "metric"; "alphabetize" |]
let nocache = { EN.default_run_options with EN.result_cache = false }

let rec node_count (n : X.node) =
  List.fold_left (fun a c -> a + node_count c) (1 + List.length n.X.attributes) n.X.children

(* the DOM VM over the parsed original: the transform oracle *)
let dom_transform prog doc =
  let frag = Xdb_xslt.Vm.transform prog doc in
  Xdb_xml.Serializer.node_list_to_string frag.X.children

let make ~seed ~ops : H.workload =
  let st = Gen.rng seed 6 in
  let doc_rows = Gen.spread st ~lo:rows_lo ~hi:rows_hi corpus in
  let texts = Array.map (fun n -> Gen.records_text (Gen.records st n)) doc_rows in
  let script =
    Gen.doc_ops (Gen.rng seed 7) ~doc_rows ~styles:(Array.length styles) ~ingest_lo ~ingest_hi ops
  in
  let stylesheets = Array.map Report.stylesheet styles in
  let progs =
    Array.map (fun s -> Xdb_xslt.Compile.compile (Xdb_xslt.Parser.parse s)) stylesheets
  in
  (* oracle state: parsed originals and their DOM-VM transforms *)
  let doms = Array.map Xdb_xml.Parser.parse texts in
  let expected = Hashtbl.create 64 in
  let setup () =
    let db = Xdb_rel.Database.create () in
    let engine, server, session = Load.serve ~options:nocache db in
    let docids =
      Array.map (fun text -> EN.store_shredded engine (Xdb_xml.Parser.parse text)) texts
    in
    let transform engine doc style =
      (EN.run ~options:nocache engine (EN.Shredded (Some [ docids.(doc) ]))
         ~stylesheet:stylesheets.(style))
        .EN.output
    in
    (* warm-up: every (document, stylesheet) pair and every query shape
       once, so first compiles and shred-cache fills stay out of the
       timed phase *)
    Array.iteri
      (fun doc _ -> Array.iteri (fun style _ -> ignore (transform engine doc style)) styles)
      docids;
    List.iter
      (fun shape -> ignore (EN.query_shredded engine ~docid:docids.(0) shape))
      [
        "//row[id='1']/name";
        "/table/row[1]/value";
        "//row[id='1']/following-sibling::row[1]/name";
        "//row[id='3']/preceding-sibling::row[2]/category";
      ];
    let nodes () = snd (SH.stats (EN.shred_store engine)) in
    let next_docid = ref (Array.fold_left max 0 docids + 1) in
    let transform_check doc style out () = out = [ Hashtbl.find expected (doc, style) ] in
    let query_check doc xpath out () =
      out = SH.serialize_dom (Xdb_xpath.Eval.select (Xdb_xpath.Eval.make_context doms.(doc)) xpath)
    in
    let ingest_check dom nodes0 docid () =
      let ok = docid = !next_docid && nodes () - nodes0 = node_count dom in
      next_docid := docid + 1;
      ok
    in
    let run i =
      match script.(i) with
      | Gen.Transform { doc; style } ->
          let out = SV.submit session (fun engine -> transform engine doc style) in
          { H.kind = "transform." ^ styles.(style); check = transform_check doc style out }
      | Gen.Query { doc; xpath; shape } ->
          let out =
            SV.submit session (fun engine -> EN.query_shredded engine ~docid:docids.(doc) xpath)
          in
          { H.kind = "query." ^ shape; check = query_check doc xpath out }
      | Gen.Ingest text ->
          let nodes0 = nodes () in
          let dom = Xdb_xml.Parser.parse text in
          let docid = SV.submit session (fun engine -> EN.store_shredded engine dom) in
          { H.kind = "ingest"; check = ingest_check dom nodes0 docid }
    in
    let traced l i =
      H.span l "request" (fun () ->
          match script.(i) with
          | Gen.Transform { doc; style } ->
              let options = { nocache with EN.collect_metrics = true } in
              let r =
                SV.submit session (fun engine ->
                    H.span l "shred_vm.transform" (fun () ->
                        EN.run ~options engine (EN.Shredded (Some [ docids.(doc) ]))
                          ~stylesheet:stylesheets.(style)))
              in
              Option.iter (fun m -> H.M.merge_into ~into:l.H.metrics m) r.EN.metrics;
              {
                H.kind = "transform." ^ styles.(style);
                check = transform_check doc style r.EN.output;
              }
          | Gen.Query { doc; xpath; shape } ->
              let out =
                SV.submit session (fun engine ->
                    H.span l "xpath.query" (fun () ->
                        EN.query_shredded engine ~docid:docids.(doc) xpath))
              in
              { H.kind = "query." ^ shape; check = query_check doc xpath out }
          | Gen.Ingest text ->
              let nodes0 = nodes () in
              let dom = H.span l "xml.parse" (fun () -> Xdb_xml.Parser.parse text) in
              l.H.parsed_bytes <- l.H.parsed_bytes + String.length text;
              let docid =
                SV.submit session (fun engine ->
                    H.span l "shred.store" (fun () -> EN.store_shredded engine dom))
              in
              { H.kind = "ingest"; check = ingest_check dom nodes0 docid })
    in
    {
      H.engine;
      server;
      stage = H.no_stage;
      run;
      traced;
      is_write = (fun i -> match script.(i) with Gen.Ingest _ -> true | _ -> false);
      static_kind = (fun i -> Gen.doc_kind script.(i));
      shredded = true;
    }
  in
  let oracle _ =
    if Hashtbl.length expected = 0 then
      Array.iteri
        (fun doc dom ->
          Array.iteri
            (fun style prog -> Hashtbl.replace expected (doc, style) (dom_transform prog dom))
            progs)
        doms
  in
  {
    H.name = "docs";
    ops;
    setup;
    oracle;
    sizes =
      Printf.sprintf
        "corpus %d documents of %d-%d rows (evenly spaced; reads target these); ingests of %d-%d rows"
        corpus rows_lo rows_hi ingest_lo ingest_hi;
  }
