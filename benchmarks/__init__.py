"""Wall-clock speed gates: the NoC event loop and the schedule cache."""
