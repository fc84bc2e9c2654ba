(* Files the build places beside the test executable's directory, resolved
   from the executable itself so that the suite checks the same files
   whichever directory it runs from. A missing file fails the test that
   needs it. *)

let beside_tests rel =
  let path = Filename.concat (Filename.dirname Sys.executable_name) rel in
  if not (Sys.file_exists path) then
    Alcotest.failf "%s not found: dune builds it beside the tests" path;
  path

let cli () = beside_tests "../bin/record_cli.exe"
let jobs_table1 () = beside_tests "../bench/jobs_table1.json"
