"""numctx: locate numbers in Malay text, classify their format, verbalize them."""
