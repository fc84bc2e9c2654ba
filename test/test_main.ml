let () =
  Alcotest.run "record"
    (Test_ir.suites @ Test_eval.suites @ Test_hashcons.suites
    @ Test_burg.suites @ Test_dfl.suites
    @ Test_opt.suites @ Test_target.suites @ Test_target_props.suites
    @ Test_rtl_ise.suites
    @ Test_mdl.suites @ Test_selftest.suites @ Test_dspstone.suites @ Test_timing.suites
    @ Test_pipeline.suites @ Test_select.suites @ Test_sim.suites
    @ Test_fuzz.suites @ Test_driver.suites
    @ Test_sim_diff.suites @ Test_domains.suites @ Test_dse.suites)
