package repro.dom

/** Immutable DOM tree node, the form in which the synthetic site renderer
  * (repro.web) builds pages before they are flattened to [[PageDoc]] rows.
  *
  * `attrs` carries the HTML attributes the Vertex feature set inspects
  * (class, id, itemprop, …); the tag is kept separately because every node
  * has one.  A node is a *text leaf* iff `text` is non-empty; mixed content
  * is not needed for the reproduction (the paper also treats entity names as
  * full text of a DOM node, §2.1).
  */
final case class DomNode(
    tag: String,
    attrs: Map[String, String] = Map.empty,
    text: String = "",
    children: Vector[DomNode] = Vector.empty,
)

object DomNode {
  /** Convenience constructors used throughout the renderer and tests. */
  def el(tag: String, children: DomNode*): DomNode = DomNode(tag, children = children.toVector)
  def el(tag: String, attrs: Map[String, String], children: DomNode*): DomNode =
    DomNode(tag, attrs, children = children.toVector)
  def txt(tag: String, text: String, attrs: Map[String, String] = Map.empty): DomNode =
    DomNode(tag, attrs, text = text)
}
