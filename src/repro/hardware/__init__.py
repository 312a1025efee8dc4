"""Hardware catalog (Table II) and performance profiles."""
