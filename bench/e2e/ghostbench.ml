(* The repository's end-to-end benchmark; see README.md. *)

let () = exit (Ghost_e2e.Cli.main Sys.argv)
