(* The replication report as a regression gate: every calibrated paper
   quantity must stay within twice its tolerance band. The full table
   prints on failure (and in `madbench figures report`). *)

let test_replication_report () =
  Alcotest.(check bool) "all paper quantities within tolerance" true
    (Report.run ())

let () =
  Alcotest.run "report"
    [
      ( "replication",
        [ Alcotest.test_case "paper quantities" `Slow test_replication_report ]
      );
    ]
