(** The machine-checkable replication report: measures every headline
    quantity of the paper on the simulated testbed and judges it against
    a tolerance band. Run by [madbench figures report] and enforced by
    the test suite, so a regression in any calibrated number fails CI. *)

type verdict = Match | Close | Off

val run : unit -> bool
(** Prints the full table; [true] unless some quantity is {!Off}
    (beyond twice its tolerance). *)
