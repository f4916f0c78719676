package repro.core

import repro.SparkSpec
import repro.web.Verticals

class TrainerSpec extends SparkSpec {
  import spark.implicits._

  test("NodeClassifier softmax sums to one") {
    val c = new Trainer.NodeClassifier(Vector("A", "B", "OTHER"),
      Array(Array.fill(repro.util.FeatureHash.Dim)(0.0),
            Array.fill(repro.util.FeatureHash.Dim)(0.1),
            Array.fill(repro.util.FeatureHash.Dim)(0.0)),
      Array(0.0, 0.5, -0.5))
    val p = c.probabilities(Seq("f1", "f2"))
    assert(math.abs(p.sum - 1.0) < 1e-9)
    assert(p.forall(x => x >= 0 && x <= 1))
  }
  test("NodeClassifier predict returns argmax") {
    val dim = repro.util.FeatureHash.Dim
    val coefA = Array.fill(dim)(0.0); coefA(repro.util.FeatureHash.indexOf("fa")) = 5.0
    val c = new Trainer.NodeClassifier(Vector("A", "OTHER"), Array(coefA, Array.fill(dim)(0.0)), Array(0.0, 0.0))
    assert(c.predict(Seq("fa"))._1 == "A")
    assert(c.predict(Seq("fz"))._2 == 0.5) // no signal: uniform over 2 classes
  }

  test("train learns a separable toy problem") {
    implicit val s = spark
    val examples = spark.createDataset(
      (1 to 50).flatMap(i => Seq(
        Trainer.Example("X", Seq("isx", s"noise$i")),
        Trainer.Example("Y", Seq("isy", s"noise$i")),
        Trainer.Example(Trainer.OtherLabel, Seq("iso", s"noise$i")))))
    val m = Trainer.train(examples)
    assert(m.labels.sorted == Vector("OTHER", "X", "Y"))
    assert(m.predict(Seq("isx"))._1 == "X")
    assert(m.predict(Seq("isy"))._1 == "Y")
    assert(m.predict(Seq("iso"))._1 == Trainer.OtherLabel)
  }

  test("buildExamples yields positives for annotations and ~negRatio negatives") {
    implicit val s = spark
    val vd   = Verticals.nbaplayer(nSites = 1, pagesPerSite = 20, seed = 7)
    val site = vd.sites.head
    val pages = spark.createDataset(site.pages)
    val kbB = spark.sparkContext.broadcast(vd.kb)
    val topics = TopicId.identify(pages, kbB).collect().toVector
    val (anns, _) = RelationAnnot.annotateFull(pages, topics, kbB)
    val freqB = spark.sparkContext.broadcast(FeatureGen.frequentStrings(pages))
    val ex = Trainer.buildExamples(pages, anns, freqB, negRatio = 3).collect()
    val nPos = ex.count(_.label != Trainer.OtherLabel)
    val nNeg = ex.count(_.label == Trainer.OtherLabel)
    assert(nPos == anns.size)
    assert(nNeg > 0 && nNeg <= 3 * nPos)
  }

  test("buildExamples excludes same-list templates from negatives") {
    implicit val s = spark
    val vd   = Verticals.movie(nSites = 1, pagesPerSite = 20, seed = 7)
    val site = vd.sites.head
    val pages = spark.createDataset(site.pages)
    val kbB = spark.sparkContext.broadcast(vd.kb)
    val topics = TopicId.identify(pages, kbB).collect().toVector
    val (anns, _) = RelationAnnot.annotateFull(pages, topics, kbB)
    val freqB = spark.sparkContext.broadcast(FeatureGen.frequentStrings(pages))
    val ex = Trainer.buildExamples(pages, anns, freqB, negRatio = 3).collect()
    // Genre lists with >= 2 annotated values: no negative may share their template.
    val posTemplates = anns.filter(_.predicate == "genre")
      .groupBy(a => (a.pageId, repro.dom.XPaths.template(a.xpath)))
      .collect { case ((_, t), as) if as.size >= 2 => t }.toSet
    val negPathFeature = ex.filter(_.label == Trainer.OtherLabel)
      .flatMap(_.features.filter(_.startsWith("p|")))
    posTemplates.foreach(t => assert(!negPathFeature.contains(s"p|$t")))
  }

  test("trained model separates predicates on a real site") {
    implicit val s = spark
    val vd   = Verticals.nbaplayer(nSites = 1, pagesPerSite = 20, seed = 7)
    val site = vd.sites.head
    val pages = spark.createDataset(site.pages)
    val kbB = spark.sparkContext.broadcast(vd.kb)
    val topics = TopicId.identify(pages, kbB).collect().toVector
    val (anns, _) = RelationAnnot.annotateFull(pages, topics, kbB)
    val freqB = spark.sparkContext.broadcast(FeatureGen.frequentStrings(pages))
    val model = Trainer.train(Trainer.buildExamples(pages, anns, freqB))
    assert(model.labels.toSet ==
      Set("team", "height", "weight", RelationAnnot.NamePred, Trainer.OtherLabel))
  }

  private def toy(n: Int): Seq[Trainer.Example] =
    (1 to n).flatMap(i => Seq(
      Trainer.Example("X", Seq("isx", s"noise$i")),
      Trainer.Example("Y", Seq("isy", s"noise$i")),
      Trainer.Example(Trainer.OtherLabel, Seq("iso", s"noise$i"))))

  test("train reports LBFGS convergence data below the loss at the initial point") {
    implicit val s = spark
    val examples = toy(50)
    val m = Trainer.train(spark.createDataset(examples), maxIter = 40)
    // At the initial point the weights are zero and the intercepts are the
    // centred log(1 + count) priors, so the loss is the prior's log-loss.
    val counts  = examples.groupBy(_.label).view.mapValues(_.size + 1.0).toMap
    val initial = -examples.map(e => math.log(counts(e.label) / counts.values.sum)).sum / examples.size
    assert(m.iterations >= 1 && m.iterations <= 40, m.iterations)
    assert(m.finalLoss.isFinite)
    assert(m.finalLoss < initial, s"final=${m.finalLoss} initial=$initial")
    val capped = Trainer.train(spark.createDataset(examples), maxIter = 3)
    assert(capped.iterations <= 3)
  }

  test("train on an empty training set predicts OTHER without NaN") {
    implicit val s = spark
    val m = Trainer.train(spark.emptyDataset[Trainer.Example])
    assert(m.labels == Vector(Trainer.OtherLabel))
    assert(m.predict(Seq("anything")) == (Trainer.OtherLabel, 1.0))
    assert(m.probabilities(Nil).sameElements(Array(1.0)))
    assert(m.finalLoss == 0.0 && m.iterations == 0)
  }

  test("train on OTHER rows only predicts OTHER everywhere") {
    implicit val s = spark
    val m = Trainer.train(spark.createDataset(toy(5).filter(_.label == Trainer.OtherLabel)))
    assert(m.labels == Vector(Trainer.OtherLabel))
    Seq(Seq("iso"), Seq("isx"), Nil).foreach(f => assert(m.predict(f) == (Trainer.OtherLabel, 1.0)))
    assert(m.finalLoss == 0.0)
  }

  test("train on one predicate plus OTHER separates the two") {
    implicit val s = spark
    val m = Trainer.train(spark.createDataset(toy(20).filter(_.label != "Y")))
    assert(m.labels == Vector(Trainer.OtherLabel, "X"))
    assert(m.predict(Seq("isx"))._1 == "X")
    assert(m.predict(Seq("iso"))._1 == Trainer.OtherLabel)
    assert(m.finalLoss.isFinite && m.iterations >= 1)
    assert(m.probabilities(Seq("isx", "iso", "unseen")).forall(p => !p.isNaN))
  }

  test("the fit does not depend on partitioning") {
    implicit val s = spark
    val vd   = Verticals.nbaplayer(nSites = 1, pagesPerSite = 20, seed = 7)
    val site = vd.sites.head
    val pages = spark.createDataset(site.pages)
    val kbB = spark.sparkContext.broadcast(vd.kb)
    val topics = TopicId.identify(pages, kbB).collect().toVector
    val (anns, _) = RelationAnnot.annotateFull(pages, topics, kbB)
    val freq  = FeatureGen.frequentStrings(pages)
    val freqB = spark.sparkContext.broadcast(freq)
    val examples = Trainer.buildExamples(pages, anns, freqB)
    val one   = Trainer.train(examples.repartition(1))
    val eight = Trainer.train(examples.repartition(8))
    assert(one.labels == eight.labels)
    assert(one.iterations == eight.iterations && one.finalLoss == eight.finalLoss)
    site.pages.foreach { p =>
      val tree = new repro.dom.PageTree(p)
      p.textNodes.foreach { n =>
        val f = FeatureGen.nodeFeatures(tree, n.id, freq)
        assert(one.probabilities(f).toSeq == eight.probabilities(f).toSeq, n.xpath)
      }
    }
  }
}
