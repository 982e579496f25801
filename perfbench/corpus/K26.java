import javax.faces.application.FacesMessage;
import javax.faces.bean.ManagedBean;
import javax.faces.context.FacesContext;

@ManagedBean
class K26 {
    String name;

    void warn(FacesContext context) {
        FacesMessage msg = new FacesMessage("check input");
        context.addMessage(null, msg);
    }
}
