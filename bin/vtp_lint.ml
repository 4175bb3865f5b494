(* CLI: lint + structural analysis of the protocol sources.

   Examples:
     vtp_lint lib bin                       # scan (the default roots)
     vtp_lint --baseline analysis/BASELINE.json lib bin bench
     vtp_lint --json report.sarif lib       # SARIF-style JSON report
     vtp_lint --update-baseline --baseline analysis/BASELINE.json lib bin
     vtp_lint --rule hot-closure lib        # one rule only
     vtp_lint --explain hashtbl-order       # rationale + offender/fix
     vtp_lint --list-rules

   Exit codes: 0 clean (no new gating findings), 1 new findings,
   2 usage error / missing directory / malformed baseline. *)

open Cmdliner

let list_rules =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rule table and exit.")

let jobs =
  Arg.(
    value & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for the per-file scan (default $(b,VTP_JOBS) \
              if set, else the recommended domain count).  Output is \
              identical at any value.")

let json_out =
  Arg.(
    value & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write a SARIF-style JSON report to $(docv) ($(b,-) for \
              stdout, suppressing the text report).")

let baseline_file =
  Arg.(
    value & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:"Suppress (but keep tracking) the findings recorded in \
              $(docv); only new findings gate.  A missing or malformed \
              baseline exits 2.")

let update_baseline =
  Arg.(
    value & flag
    & info [ "update-baseline" ]
        ~doc:"Rewrite the $(b,--baseline) file from the current scan and \
              exit 0.  Cannot be combined with $(b,--rule): a filtered \
              scan would drop every other rule's baselined findings.")

let rule_filter =
  Arg.(
    value & opt_all string []
    & info [ "rule" ] ~docv:"ID"
        ~doc:"Restrict the scan to this rule id (repeatable).")

let explain =
  Arg.(
    value & opt (some string) None
    & info [ "explain" ] ~docv:"ID"
        ~doc:"Print the rule's rationale and an offender/fix example \
              pair, then exit.")

let roots =
  Arg.(
    value
    & pos_all string [ "lib"; "bin" ]
    & info [] ~docv:"DIR" ~doc:"Directories to scan (default: lib bin).")

(* ------------------------------------------------------------------ *)

let do_list_rules () =
  List.iter
    (fun (p : Analysis.Pass.t) ->
      Format.printf "%-18s %-8s %s: %s@." p.id "error" p.family p.doc;
      let paths label = function
        | [] -> ()
        | ps -> Format.printf "%-18s   %s: %s@." "" label (String.concat " " ps)
      in
      paths "scope" p.dirs;
      paths "allow" p.allow)
    Analysis.Check.passes;
  0

let do_explain rid =
  match Analysis.Check.find_pass rid with
  | Some p ->
      Format.printf "%s — %s: %s@.@.%s@.@.Offender:@.  %s@.@.Fix:@.  %s@."
        p.id p.family p.doc p.rationale p.bad p.good;
      0
  | None ->
      Format.eprintf "vtp_lint: unknown rule %s (try --list-rules)@." rid;
      2

let rule_meta () =
  List.map (fun (p : Analysis.Pass.t) -> (p.id, p.doc)) Analysis.Check.passes

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let run list_only jobs json_out baseline_file update_baseline
    rule_filter explain roots =
  match explain with
  | Some rid -> do_explain rid
  | None ->
      if list_only then do_list_rules ()
      else if update_baseline && rule_filter <> [] then begin
        Format.eprintf
          "vtp_lint: --update-baseline cannot be combined with --rule@.";
        2
      end
      else begin
        let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
        match missing with
        | d :: _ ->
            Format.eprintf "vtp_lint: no such directory: %s@." d;
            2
        | [] ->
            let entries =
              Analysis.Report.sort
                (Analysis.Report.of_check
                   (Analysis.Check.run_tree ?jobs ~roots ()))
            in
            let entries =
              match rule_filter with
              | [] -> entries
              | rs ->
                  List.filter
                    (fun (e : Analysis.Report.entry) ->
                      List.mem e.Analysis.Report.rule rs)
                    entries
            in
            if update_baseline then begin
              let path =
                Option.value baseline_file ~default:"analysis/BASELINE.json"
              in
              Analysis.Baseline.save path entries;
              Format.printf "vtp_lint: baseline updated: %d finding(s) -> %s@."
                (List.length entries) path;
              0
            end
            else begin
              match
                match baseline_file with
                | None -> Ok (List.map (fun e -> (e, true)) entries)
                | Some p -> (
                    try
                      Ok
                        (Analysis.Baseline.classify
                           (Analysis.Baseline.load p)
                           entries)
                    with Analysis.Baseline.Malformed m -> Error (p, m))
              with
              | Error (p, m) ->
                  Format.eprintf "vtp_lint: malformed baseline %s: %s@." p m;
                  2
              | Ok classified ->
                  let json_to_stdout =
                    match json_out with Some "-" -> true | _ -> false
                  in
                  (match json_out with
                  | None -> ()
                  | Some dest ->
                      let doc =
                        Analysis.Report.sarif ~rules:(rule_meta ()) classified
                      in
                      let text = Stats.Json.to_string doc ^ "\n" in
                      if json_to_stdout then print_string text
                      else write_file dest text);
                  let new_gating = List.filter snd classified in
                  if not json_to_stdout then begin
                    List.iter
                      (fun c ->
                        Format.printf "%a@." Analysis.Report.pp_entry c)
                      classified;
                    Format.printf
                      "vtp_lint: %d finding(s), %d baselined, %d gating@."
                      (List.length classified)
                      (List.length classified - List.length new_gating)
                      (List.length new_gating)
                  end;
                  if new_gating = [] then 0 else 1
            end
      end

let cmd =
  let doc =
    "Protocol-source lint and structural analysis: determinism, hot-path \
     allocation, protocol constants, API hygiene."
  in
  Cmd.v
    (Cmd.info "vtp_lint" ~doc)
    Term.(
      const run $ list_rules $ jobs $ json_out
      $ baseline_file $ update_baseline $ rule_filter $ explain $ roots)

let () = exit (Cmd.eval' cmd)
