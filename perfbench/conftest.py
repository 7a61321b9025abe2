import checkout

checkout.pin_blas()
checkout.use_checkout_sources()
